(* The translated-plan cache on the engine's textual query path: repeat
   runs hit the cache and return identical results; DDL, ANALYZE, row
   counts crossing a power of two and commits to xml_path invalidate
   cached plans, other DML keeps them. *)

let check = Alcotest.check
let rows_t = Alcotest.(list (list string))

module D = Datahounds

let universe_of n =
  Workload.Genbio.generate
    { Workload.Genbio.seed = 3; n_enzymes = n; n_embl = n; n_sprot = n;
      n_citations = 10; cdc6_rate = 0.1; ketone_rate = 0.25; ec_link_rate = 0.8;
      seq_length = 40 }

let fresh_warehouse ?(n = 20) () =
  let wh = D.Warehouse.create () in
  (match Workload.Genbio.load_universe wh (universe_of n) with
   | Ok () -> ()
   | Error m -> failwith m);
  wh

let q =
  {|FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a//catalytic_activity, "ketone")
RETURN $a//enzyme_id|}

let contains_sub s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let hits () = fst (Xomatiq.Engine.cache_stats ())
let misses () = snd (Xomatiq.Engine.cache_stats ())

let test_hits_identical () =
  let wh = fresh_warehouse () in
  Xomatiq.Engine.cache_clear ();
  let r1 = Xomatiq.Engine.run_text wh q in
  check Alcotest.int "first run misses" 0 (hits ());
  check Alcotest.int "first run recorded as miss" 1 (misses ());
  let r2 = Xomatiq.Engine.run_text wh q in
  check Alcotest.int "second run hits" 1 (hits ());
  check rows_t "cached rows identical" r1.Xomatiq.Engine.rows r2.Xomatiq.Engine.rows;
  check Alcotest.(list string) "cached labels identical" r1.Xomatiq.Engine.labels
    r2.Xomatiq.Engine.labels;
  check Alcotest.string "cached sql identical" r1.Xomatiq.Engine.sql
    r2.Xomatiq.Engine.sql;
  (* the key is whitespace-normalized: reformatting still hits *)
  let reformatted = String.map (function '\n' -> ' ' | c -> c) q in
  let r3 = Xomatiq.Engine.run_text wh ("  " ^ reformatted ^ "  ") in
  check Alcotest.int "reformatted text hits" 2 (hits ());
  check rows_t "reformatted rows identical" r1.Xomatiq.Engine.rows
    r3.Xomatiq.Engine.rows;
  (* the contains-strategy is part of the key *)
  let r4 = Xomatiq.Engine.run_text ~contains_strategy:`Like_scan wh q in
  check Alcotest.int "other strategy misses" 2 (misses ());
  check rows_t "strategies agree on this query" r1.Xomatiq.Engine.rows
    r4.Xomatiq.Engine.rows;
  (* traced and reference runs bypass the cache entirely *)
  let h, m = Xomatiq.Engine.cache_stats () in
  ignore (Xomatiq.Engine.run_text ~trace:true wh q);
  ignore (Xomatiq.Engine.run_text ~mode:`Reference wh q);
  check (Alcotest.pair Alcotest.int Alcotest.int) "bypass paths leave stats alone"
    (h, m) (Xomatiq.Engine.cache_stats ());
  D.Warehouse.close wh

let load_one_more wh =
  (* a document load whose paths all exist already *)
  let e : D.Enzyme.t =
    { ec_number = "9.9.9.9"; description = "cache invalidation enzyme";
      alternate_names = []; catalytic_activities = [ "An extra ketone reaction" ];
      cofactors = []; comments = []; prosite_refs = []; swissprot_refs = [];
      diseases = [] }
  in
  match
    D.Warehouse.load_document wh ~collection:"hlx_enzyme.DEFAULT"
      ~name:(D.Enzyme_xml.document_name e)
      (D.Enzyme_xml.to_document e)
  with
  | Ok () -> ()
  | Error m -> failwith m

let row_count db table =
  match Rdb.Database.query db ("SELECT COUNT(1) FROM " ^ table) with
  | Ok (_, [ [| Rdb.Value.Int n |] ]) -> n
  | _ -> failwith ("cannot count " ^ table)

let rec bit_length n = if n = 0 then 0 else 1 + bit_length (n lsr 1)

(* Run [f], checking that it moves no row count of [tables] across a
   power of two: a crossing bumps the schema epoch, which would hide
   whether the commit epochs alone keep or drop the plan. *)
let without_crossing db tables f =
  let before = List.map (row_count db) tables in
  f ();
  List.iter2
    (fun table n ->
      check Alcotest.int
        (Printf.sprintf "fixture: %s (%d -> %d rows) stays within its power of two"
           table n (row_count db table))
        (bit_length n) (bit_length (row_count db table)))
    tables before

(* Cached translations key on the schema/stats epoch plus xml_path's
   commit epoch: DDL, ANALYZE, a row count crossing a power of two and a
   commit that changes xml_path re-translate; other DML keeps the plan,
   and MVCC snapshots keep its results current. *)
let test_invalidation () =
  let wh = fresh_warehouse () in
  let db = D.Warehouse.db wh in
  let exec sql = ignore (Rdb.Database.exec_exn db sql) in
  let run () = Xomatiq.Engine.run_text wh q in
  Xomatiq.Engine.cache_clear ();
  let r1 = run () in
  ignore (run ());
  check Alcotest.int "warm" 1 (hits ());
  (* 1: a document load that adds no new path keeps the plan, and the
     new document is still visible *)
  without_crossing db [ "xml_doc"; "xml_node"; "xml_keyword"; "xml_path" ]
    (fun () -> load_one_more wh);
  let r2 = run () in
  check Alcotest.int "document load keeps the plan" 2 (hits ());
  check Alcotest.int "no re-translation" 1 (misses ());
  check Alcotest.bool "new document is visible" true
    (List.length r2.Xomatiq.Engine.rows = List.length r1.Xomatiq.Engine.rows + 1);
  check Alcotest.bool "new row present" true
    (List.mem [ "9.9.9.9" ] r2.Xomatiq.Engine.rows);
  (* 2: ANALYZE invalidates *)
  exec "ANALYZE";
  ignore (run ());
  check Alcotest.int "ANALYZE invalidates" 2 (misses ());
  ignore (run ());
  check Alcotest.int "warm after ANALYZE" 3 (hits ());
  (* 3: DDL invalidates *)
  exec "CREATE TABLE scratch (a INT)";
  exec "INSERT INTO scratch VALUES (1), (2)";
  ignore (run ());
  check Alcotest.int "DDL invalidates" 3 (misses ());
  (* 4: INSERT, UPDATE and DELETE on an unrelated table keep the hit *)
  without_crossing db [ "scratch" ] (fun () ->
      exec "INSERT INTO scratch VALUES (3)";
      ignore (run ());
      check Alcotest.int "INSERT keeps the plan" 4 (hits ());
      exec "UPDATE scratch SET a = 30 WHERE a = 3";
      ignore (run ());
      check Alcotest.int "UPDATE keeps the plan" 5 (hits ());
      exec "DELETE FROM scratch WHERE a = 30");
  let r3 = run () in
  check Alcotest.int "DELETE keeps the plan" 6 (hits ());
  check Alcotest.int "no re-translation for DML" 3 (misses ());
  (* 5: a row count crossing a power of two re-plans (2 -> 4 rows) *)
  exec "INSERT INTO scratch VALUES (3), (4)";
  ignore (run ());
  check Alcotest.int "row count crossing re-plans" 4 (misses ());
  (* 6: a commit that adds an xml_path row re-translates *)
  without_crossing db [ "xml_path" ] (fun () ->
      exec "INSERT INTO xml_path VALUES (100001, '/zzz/unused')");
  let r4 = run () in
  check Alcotest.int "xml_path commit re-translates" 5 (misses ());
  check rows_t "results stable throughout" r2.Xomatiq.Engine.rows
    r3.Xomatiq.Engine.rows;
  check rows_t "results stable after re-translation" r2.Xomatiq.Engine.rows
    r4.Xomatiq.Engine.rows;
  (* cache_clear resets counters *)
  Xomatiq.Engine.cache_clear ();
  check (Alcotest.pair Alcotest.int Alcotest.int) "cleared" (0, 0)
    (Xomatiq.Engine.cache_stats ());
  D.Warehouse.close wh

(* A translation cached while another session's write to xml_path is
   still uncommitted must not outlive that commit: the commit (not the
   statement) moves xml_path's commit epoch, after the commit is
   visible. *)
let test_translation_after_commit () =
  let wh = fresh_warehouse () in
  let db = D.Warehouse.db wh in
  let a = Rdb.Database.session db in
  let sess_exec sql =
    match Rdb.Database.session_exec a sql with
    | Ok _ -> ()
    | Error m -> Alcotest.failf "%s: %s" sql m
  in
  let q_new =
    {|FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme RETURN $a/zzz_new|}
  in
  Xomatiq.Engine.cache_clear ();
  Xomatiq.Xq2sql.path_cache_clear ();
  sess_exec "BEGIN";
  sess_exec "INSERT INTO xml_path VALUES (100000, '/hlx_enzyme/zzz_new')";
  let before = Xomatiq.Engine.run_text wh q_new in
  check Alcotest.bool "uncommitted path is invisible to the translation" true
    (contains_sub before.Xomatiq.Engine.sql "1 = 0");
  sess_exec "COMMIT";
  let after = Xomatiq.Engine.run_text wh q_new in
  check Alcotest.bool
    (Printf.sprintf "committed path is translated (%s)" after.Xomatiq.Engine.sql)
    true
    (contains_sub after.Xomatiq.Engine.sql "path_id = 100000");
  D.Warehouse.close wh

(* Every query has one sequential plan at every jobs setting: the jobs
   setting is not part of the cache key, a plan cached at jobs=1 serves
   jobs=4, and EXPLAIN is byte-identical at both. The warehouse is big
   enough that its node table would once have been split into parallel
   partitions (over 2000 rows). *)
let figure_queries =
  [ {|FOR $a IN document("hlx_embl.inv")/hlx_n_sequence,
    $b IN document("hlx_sprot.all")/hlx_n_sequence
WHERE contains($a, "cdc6", any) AND contains($b, "cdc6", any)
RETURN $b//sprot_accession_number, $a//embl_accession_number|};
    q;
    {|FOR $a IN document("hlx_embl.inv")/hlx_n_sequence/db_entry,
    $b IN document("hlx_enzyme.DEFAULT")/hlx_enzyme/db_entry
WHERE $a//qualifier[@qualifier_type = "EC number"] = $b/enzyme_id
RETURN $Accession_Number = $a//embl_accession_number,
       $Accession_Description = $a//description|} ]

let test_one_plan_at_every_jobs () =
  let wh = fresh_warehouse ~n:60 () in
  let db = D.Warehouse.db wh in
  (match Rdb.Database.query db "SELECT COUNT(1) FROM xml_node" with
   | Ok (_, [ [| Rdb.Value.Int n |] ]) ->
     check Alcotest.bool
       (Printf.sprintf "node table exceeds 2000 rows (%d)" n)
       true (n > 2000)
   | _ -> Alcotest.fail "cannot count xml_node");
  let at jobs f = Conc.Pool.with_jobs jobs f in
  List.iter
    (fun text ->
      let explain () = Xomatiq.Engine.explain wh (Xomatiq.Parser.parse text) in
      check Alcotest.string ("EXPLAIN jobs=4 = jobs=1: " ^ text)
        (at 1 explain) (at 4 explain))
    figure_queries;
  let scan_sql = "SELECT node_id FROM xml_node WHERE sval LIKE '%cdc6%'" in
  let explain_sql () =
    match Rdb.Database.explain db scan_sql with
    | Ok p -> p
    | Error m -> failwith m
  in
  check Alcotest.string "full-scan EXPLAIN jobs=4 = jobs=1" (at 1 explain_sql)
    (at 4 explain_sql);
  Xomatiq.Engine.cache_clear ();
  let r1 = at 1 (fun () -> Xomatiq.Engine.run_text wh q) in
  check Alcotest.int "jobs=1 translates" 1 (misses ());
  let r4 = at 4 (fun () -> Xomatiq.Engine.run_text wh q) in
  check Alcotest.int "jobs=4 hits the jobs=1 entry" 1 (hits ());
  check Alcotest.int "no second translation" 1 (misses ());
  check Alcotest.bool "jobs=4 run reports the hit" true r4.Xomatiq.Engine.cached;
  check rows_t "both settings agree" r1.Xomatiq.Engine.rows r4.Xomatiq.Engine.rows;
  D.Warehouse.close wh

let () =
  Alcotest.run "plan-cache"
    [ ( "cache",
        [ Alcotest.test_case "hits return identical results" `Quick
            test_hits_identical;
          Alcotest.test_case "schema and commit epochs" `Quick
            test_invalidation;
          Alcotest.test_case "translation after COMMIT" `Quick
            test_translation_after_commit;
          Alcotest.test_case "one plan at every jobs setting" `Quick
            test_one_plan_at_every_jobs ] ) ]
