(* MVCC snapshot isolation and WAL-shipped read replicas: reads never
   block (or get blocked by) writers, shipped streams replay
   idempotently and deterministically, a caught-up replica is
   byte-identical to its primary, and checkpoint truncation keeps the
   log flat without cutting a connected replica off. *)

let check = Alcotest.check

module Db = Rdb.Database
module Repl = Replication

let with_temp_dir f =
  let dir = Filename.temp_file "xomatiq_repl" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then
        ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
    (fun () -> f dir)

let exec db sql =
  match Db.exec db sql with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "%s: %s" sql m

let count db sql =
  match Db.query db sql with
  | Ok (_, [ [| Rdb.Value.Int n |] ]) -> n
  | Ok _ -> Alcotest.failf "%s: expected one integer" sql
  | Error m -> Alcotest.failf "%s: %s" sql m

let sess_exec s sql =
  match Db.session_exec s sql with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "%s: %s" sql m

let sess_count s sql =
  match Db.session_exec s sql with
  | Ok (Db.Rows { rows = [ [| Rdb.Value.Int n |] ]; _ }) -> n
  | Ok _ -> Alcotest.failf "%s: expected one integer" sql
  | Error m -> Alcotest.failf "%s: %s" sql m

(* Deterministic full-content dump: every row of every listed table in
   primary-key order. *)
let dump db tables =
  String.concat "\n"
    (List.map
       (fun (tbl, order) ->
         let cols, rows =
           Db.query_exn db
             (Printf.sprintf "SELECT * FROM %s ORDER BY %s" tbl order)
         in
         tbl ^ ":" ^ String.concat "," cols ^ "\n"
         ^ String.concat "\n"
             (List.map
                (fun r ->
                  String.concat "|"
                    (Array.to_list (Array.map Rdb.Value.to_string r)))
                rows))
       tables)

(* ================================================================== *)
(* MVCC snapshot reads                                                 *)
(* ================================================================== *)

let fixture db =
  exec db "CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER NOT NULL)";
  for i = 1 to 10 do
    exec db (Printf.sprintf "INSERT INTO t VALUES (%d, 0)" i)
  done

(* The tentpole behaviour: a transaction holding a pinned snapshot does
   not block a writer, and the writer's commit does not leak into the
   snapshot. Under the old two-phase-locking reads, the SELECT's shared
   lock made the UPDATE fail with a lock conflict. *)
let test_snapshot_reads_dont_block_writers () =
  let db = Db.open_in_memory () in
  Fun.protect ~finally:(fun () -> Db.close db) @@ fun () ->
  fixture db;
  let s1 = Db.session db in
  sess_exec s1 "BEGIN";
  check Alcotest.int "snapshot pinned at first read" 0
    (sess_count s1 "SELECT SUM(v) FROM t");
  (* concurrent writer: must succeed immediately, not block or error *)
  (match Db.exec db "UPDATE t SET v = 5 WHERE id <= 4" with
   | Ok (Db.Affected 4) -> ()
   | Ok _ -> Alcotest.fail "UPDATE: unexpected result"
   | Error m -> Alcotest.failf "writer blocked by a reader: %s" m);
  check Alcotest.int "repeatable read inside the transaction" 0
    (sess_count s1 "SELECT SUM(v) FROM t");
  check Alcotest.int "statement snapshot sees the commit" 20
    (count db "SELECT SUM(v) FROM t");
  sess_exec s1 "COMMIT";
  check Alcotest.int "fresh snapshot after commit" 20
    (sess_count s1 "SELECT SUM(v) FROM t")

let test_own_writes_visible () =
  let db = Db.open_in_memory () in
  Fun.protect ~finally:(fun () -> Db.close db) @@ fun () ->
  fixture db;
  let s1 = Db.session db and s2 = Db.session db in
  sess_exec s1 "BEGIN";
  check Alcotest.int "pin" 10 (sess_count s1 "SELECT COUNT(1) FROM t");
  sess_exec s1 "INSERT INTO t VALUES (11, 7)";
  check Alcotest.int "own insert visible" 11
    (sess_count s1 "SELECT COUNT(1) FROM t");
  check Alcotest.int "uncommitted insert invisible elsewhere" 10
    (sess_count s2 "SELECT COUNT(1) FROM t");
  sess_exec s1 "COMMIT";
  check Alcotest.int "visible after commit" 11
    (sess_count s2 "SELECT COUNT(1) FROM t")

let test_first_updater_wins () =
  let db = Db.open_in_memory () in
  Fun.protect ~finally:(fun () -> Db.close db) @@ fun () ->
  fixture db;
  let s1 = Db.session db and s2 = Db.session db in
  sess_exec s1 "BEGIN";
  ignore (sess_count s1 "SELECT SUM(v) FROM t");
  (* s2 commits over a row the snapshot covers *)
  sess_exec s2 "UPDATE t SET v = 99 WHERE id = 1";
  (match Db.session_exec s1 "UPDATE t SET v = 1 WHERE id = 1" with
   | Ok _ -> Alcotest.fail "expected a serialization failure"
   | Error m ->
     check Alcotest.bool
       (Printf.sprintf "error mentions serialization: %s" m)
       true
       (String.length m >= 13
        && String.sub m 0 13 = "serialization"));
  check Alcotest.bool "transaction rolled back" false
    (Db.session_in_transaction s1);
  check Alcotest.int "the first updater's value survives" 99
    (sess_count s1 "SELECT v FROM t WHERE id = 1")

(* Statement snapshots stay transactionally consistent under a live
   writer: every concurrent full-table SUM lands on a multiple of the
   row count (each committed pass increments every row by 1). *)
let test_concurrent_scan_consistency () =
  let db = Db.open_in_memory () in
  Fun.protect ~finally:(fun () -> Db.close db) @@ fun () ->
  exec db "CREATE TABLE c (id INTEGER PRIMARY KEY, v INTEGER NOT NULL)";
  let n = 500 and passes = 30 in
  exec db "BEGIN";
  for i = 1 to n do
    exec db (Printf.sprintf "INSERT INTO c VALUES (%d, 0)" i)
  done;
  exec db "COMMIT";
  let writer_done = Atomic.make false in
  let bad = Atomic.make (-1) in
  let reader =
    Thread.create
      (fun () ->
        let s = Db.session db in
        while not (Atomic.get writer_done) do
          let sum = sess_count s "SELECT SUM(v) FROM c" in
          if sum mod n <> 0 then Atomic.set bad sum
        done)
      ()
  in
  let s = Db.session db in
  for _ = 1 to passes do
    sess_exec s "UPDATE c SET v = v + 1"
  done;
  Atomic.set writer_done true;
  Thread.join reader;
  check Alcotest.int "no torn snapshot observed" (-1) (Atomic.get bad);
  check Alcotest.int "all passes committed" (n * passes)
    (count db "SELECT SUM(v) FROM c")

(* ================================================================== *)
(* WAL shipping                                                        *)
(* ================================================================== *)

let spin ?(timeout_s = 10.) pred what =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Thread.delay 0.01;
      go ()
    end
  in
  go ()

let seed_primary db =
  exec db "CREATE TABLE acc (id INTEGER PRIMARY KEY, name TEXT NOT NULL, \
           bal INTEGER NOT NULL)";
  exec db "CREATE INDEX acc_bal ON acc (bal)";
  for i = 1 to 40 do
    exec db
      (Printf.sprintf "INSERT INTO acc VALUES (%d, 'acct-%03d', %d)" i i
         (i * 10))
  done;
  exec db "UPDATE acc SET bal = bal + 7 WHERE id <= 12";
  exec db "DELETE FROM acc WHERE id > 35";
  (* one multi-statement transaction and one rolled-back one *)
  exec db "BEGIN";
  exec db "UPDATE acc SET bal = 0 WHERE id = 1";
  exec db "INSERT INTO acc VALUES (50, 'late', 1)";
  exec db "COMMIT";
  exec db "BEGIN";
  exec db "UPDATE acc SET bal = 12345 WHERE id = 2";
  exec db "ROLLBACK"

let acc_tables = [ ("acc", "id") ]

let wait_caught_up primary rep =
  let pos = Db.wal_position primary in
  check Alcotest.bool "replica caught up" true
    (Repl.Replica.wait_for rep ~pos ~timeout_s:10.)

let test_ship_and_apply () =
  with_temp_dir @@ fun dir ->
  let primary = Db.open_with_wal (Filename.concat dir "p.wal") in
  seed_primary primary;
  let prim = Repl.Primary.start ~port:0 primary in
  let replica_db = Db.open_with_wal (Filename.concat dir "r.wal") in
  let rep =
    Repl.Replica.start ~host:"127.0.0.1" ~port:(Repl.Primary.port prim)
      replica_db
  in
  Fun.protect
    ~finally:(fun () ->
      Repl.Replica.stop rep;
      Repl.Primary.stop prim;
      Db.close replica_db;
      Db.close primary)
  @@ fun () ->
  wait_caught_up primary rep;
  check Alcotest.string "caught-up replica is byte-identical"
    (dump primary acc_tables) (dump replica_db acc_tables);
  (* shipped DDL + DML: a new table appears and fills on the replica,
     and its schema epoch bump re-validates any cached plan *)
  exec primary "CREATE TABLE extra (id INTEGER PRIMARY KEY, w TEXT)";
  exec primary "INSERT INTO extra VALUES (1, 'shipped')";
  exec primary "UPDATE acc SET bal = bal + 1 WHERE bal > 300";
  wait_caught_up primary rep;
  let tables = acc_tables @ [ ("extra", "id") ] in
  check Alcotest.string "DDL and DML ship incrementally"
    (dump primary tables) (dump replica_db tables);
  (* position accounting both ways *)
  spin
    (fun () -> Repl.Primary.min_acked prim = Some (Db.wal_position primary))
    "primary to see the replica's ack";
  (match Repl.Primary.replica_lags prim with
   | [ (_, acked, lag) ] ->
     check Alcotest.int "acked = primary position" (Db.wal_position primary)
       acked;
     check Alcotest.int "no lag when idle" 0 lag
   | l -> Alcotest.failf "expected one replica, got %d" (List.length l));
  check Alcotest.int "replica applied = primary position"
    (Db.wal_position primary) (Repl.Replica.applied rep)

let test_ship_bulk_load () =
  with_temp_dir @@ fun dir ->
  let primary = Db.open_with_wal (Filename.concat dir "p.wal") in
  exec primary "CREATE TABLE bulk (id INTEGER PRIMARY KEY, s TEXT)";
  let w = Rdb.Storage.spool_create (Filename.concat dir "bulk.spool") in
  for i = 1 to 200 do
    Rdb.Storage.spool_add w
      [| Rdb.Value.Int i; Rdb.Value.Text (Printf.sprintf "row-%04d" i) |]
  done;
  let rows = Rdb.Storage.spool_finish w in
  (match
     Db.bulk_load primary ~table:"bulk"
       ~spool:(Filename.concat dir "bulk.spool") ~rows
   with
   | Ok n -> check Alcotest.int "bulk load count" 200 n
   | Error m -> Alcotest.failf "bulk_load: %s" m);
  let prim = Repl.Primary.start ~port:0 primary in
  let replica_db = Db.open_with_wal (Filename.concat dir "r.wal") in
  let rep =
    Repl.Replica.start ~host:"127.0.0.1" ~port:(Repl.Primary.port prim)
      replica_db
  in
  Fun.protect
    ~finally:(fun () ->
      Repl.Replica.stop rep;
      Repl.Primary.stop prim;
      Db.close replica_db;
      Db.close primary)
  @@ fun () ->
  wait_caught_up primary rep;
  (* the spool file itself was shipped and landed beside the replica's
     WAL, so its Load record replays locally *)
  check Alcotest.string "bulk-loaded rows ship via the spool frame"
    (dump primary [ ("bulk", "id") ])
    (dump replica_db [ ("bulk", "id") ]);
  check Alcotest.bool "replica spool file exists" true
    (Sys.file_exists
       (Filename.concat (Filename.concat dir "r.wal.spools") "bulk.spool"))

(* Crash determinism, without sockets: a replica that appended shipped
   lines but crashed before applying them (append-before-apply) comes
   back byte-identical by replaying its own log. *)
let test_append_before_apply_crash () =
  with_temp_dir @@ fun dir ->
  let primary = Db.open_with_wal (Filename.concat dir "p.wal") in
  seed_primary primary;
  let lines =
    match Rdb.Wal.tail_from (Filename.concat dir "p.wal") ~pos:0 with
    | `Ok lines -> lines
    | `Truncated _ -> Alcotest.fail "unexpected truncated log"
  in
  let rpath = Filename.concat dir "crashed.wal" in
  let crashed = Db.open_with_wal rpath in
  Db.repl_append_lines crashed lines;
  (* "crash": the process dies with the lines appended but never
     applied. No [Db.close] — a clean shutdown would checkpoint, and a
     crash is exactly the case where that never happened. The handle is
     abandoned; recovery reads the flushed log. *)
  let recovered = Db.open_with_wal rpath in
  Fun.protect
    ~finally:(fun () ->
      Db.close recovered;
      Db.close primary)
  @@ fun () ->
  check Alcotest.string "recovery replays the shipped stream"
    (dump primary acc_tables) (dump recovered acc_tables)

(* Idempotence: re-applying committed transactions that are already in
   the table leaves the dump unchanged (restart-mid-stream re-ships). *)
let test_reapply_is_idempotent () =
  with_temp_dir @@ fun dir ->
  let primary = Db.open_with_wal (Filename.concat dir "p.wal") in
  Fun.protect ~finally:(fun () -> Db.close primary) @@ fun () ->
  seed_primary primary;
  let before = dump primary acc_tables in
  let ops = Rdb.Wal.ops_from (Filename.concat dir "p.wal") ~pos:0 in
  (* group committed DML transactions exactly like the replica does *)
  let pending = Hashtbl.create 8 in
  let txns = ref [] in
  List.iter
    (fun (op : Rdb.Wal.op) ->
      match op with
      | Begin txid -> Hashtbl.replace pending txid []
      | Insert { txid; _ } | Delete { txid; _ } | Update { txid; _ }
      | Load { txid; _ } -> (
        match Hashtbl.find_opt pending txid with
        | Some ops -> Hashtbl.replace pending txid (op :: ops)
        | None -> Hashtbl.replace pending txid [ op ])
      | Commit txid -> (
        match Hashtbl.find_opt pending txid with
        | Some ops ->
          txns := List.rev ops :: !txns;
          Hashtbl.remove pending txid
        | None -> ())
      | Rollback txid -> Hashtbl.remove pending txid
      | Ddl _ -> ())
    ops;
  List.iter (fun txn -> Db.repl_apply_txn primary txn) (List.rev !txns);
  check Alcotest.string "re-applying every committed transaction is a no-op"
    before
    (dump primary acc_tables)

let test_replica_restart_resumes () =
  with_temp_dir @@ fun dir ->
  let primary = Db.open_with_wal (Filename.concat dir "p.wal") in
  seed_primary primary;
  let prim = Repl.Primary.start ~port:0 primary in
  let port = Repl.Primary.port prim in
  let replica_db = Db.open_with_wal (Filename.concat dir "r.wal") in
  Fun.protect
    ~finally:(fun () ->
      Repl.Primary.stop prim;
      Db.close replica_db;
      Db.close primary)
  @@ fun () ->
  let rep1 = Repl.Replica.start ~host:"127.0.0.1" ~port replica_db in
  wait_caught_up primary rep1;
  Repl.Replica.stop rep1;
  (* the stream advances while the replica is down *)
  exec primary "INSERT INTO acc VALUES (60, 'while-down', 600)";
  exec primary "UPDATE acc SET bal = bal + 2 WHERE id = 3";
  exec primary "CREATE TABLE down (id INTEGER PRIMARY KEY)";
  exec primary "INSERT INTO down VALUES (1)";
  (* restart: the handshake resumes from the local applied position *)
  let rep2 = Repl.Replica.start ~host:"127.0.0.1" ~port replica_db in
  Fun.protect ~finally:(fun () -> Repl.Replica.stop rep2) @@ fun () ->
  wait_caught_up primary rep2;
  let tables = acc_tables @ [ ("down", "id") ] in
  check Alcotest.string "restarted replica converges byte-identically"
    (dump primary tables) (dump replica_db tables)

(* ================================================================== *)
(* Checkpointed truncation                                             *)
(* ================================================================== *)

let test_truncation_gated_by_replica () =
  with_temp_dir @@ fun dir ->
  let pdir = Filename.concat dir "pdata" in
  Unix.mkdir pdir 0o755;
  let wal = Filename.concat dir "p.wal" in
  let primary = Db.open_disk ~wal ~dir:pdir () in
  seed_primary primary;
  let prim = Repl.Primary.start ~port:0 primary in
  let replica_db = Db.open_with_wal (Filename.concat dir "r.wal") in
  let rep =
    Repl.Replica.start ~host:"127.0.0.1" ~port:(Repl.Primary.port prim)
      replica_db
  in
  wait_caught_up primary rep;
  spin
    (fun () -> Repl.Primary.min_acked prim = Some (Db.wal_position primary))
    "ack to reach the primary";
  (* churn, then checkpoint: the acked prefix (everything) goes away *)
  for round = 1 to 3 do
    for i = 100 + (round * 10) to 109 + (round * 10) do
      exec primary (Printf.sprintf "INSERT INTO acc VALUES (%d, 'churn', 1)" i)
    done;
    exec primary
      (Printf.sprintf "DELETE FROM acc WHERE id >= %d" (100 + (round * 10)))
  done;
  wait_caught_up primary rep;
  spin
    (fun () -> Repl.Primary.min_acked prim = Some (Db.wal_position primary))
    "final ack";
  let pos = Db.wal_position primary in
  Repl.Primary.checkpoint prim;
  check Alcotest.bool "WAL prefix dropped" true (Db.wal_base primary > 0);
  check Alcotest.int "logical position survives truncation" pos
    (Db.wal_position primary);
  let dump_before = dump primary acc_tables in
  check Alcotest.string "replica unaffected by primary truncation"
    dump_before (dump replica_db acc_tables);
  (* a brand-new subscriber from position 0 is below the base: refused *)
  let fresh_db = Db.open_with_wal (Filename.concat dir "fresh.wal") in
  let fresh =
    Repl.Replica.start ~host:"127.0.0.1" ~port:(Repl.Primary.port prim)
      fresh_db
  in
  check Alcotest.bool "pre-base subscriber cannot catch up" false
    (Repl.Replica.wait_for fresh ~pos:1 ~timeout_s:1.);
  Repl.Replica.stop fresh;
  Db.close fresh_db;
  Repl.Replica.stop rep;
  Repl.Primary.stop prim;
  Db.close replica_db;
  (* hybrid recovery: pages + surviving WAL suffix reopen cleanly *)
  Db.close primary;
  let reopened = Db.open_disk ~wal ~dir:pdir () in
  Fun.protect ~finally:(fun () -> Db.close reopened) @@ fun () ->
  check Alcotest.string "truncated-WAL reopen is byte-identical" dump_before
    (dump reopened acc_tables)

(* ================================================================== *)
(* Read routing through the server                                     *)
(* ================================================================== *)

module Server = Xserver.Server
module Client = Xserver.Client

let start_server ?(read_only = false) ?done_seq ?repl_status wh =
  let cfg =
    { Server.default_config with
      port = 0; max_clients = 8; queue_depth = 4; read_only; done_seq;
      repl_status }
  in
  Server.start cfg wh

let stop_server srv =
  Server.request_stop srv;
  Server.wait srv

let test_routed_reads_and_read_only () =
  with_temp_dir @@ fun dir ->
  let wh_p = Datahounds.Warehouse.create ~wal:(Filename.concat dir "p.wal") () in
  let wh_r = Datahounds.Warehouse.create ~wal:(Filename.concat dir "r.wal") () in
  let db_p = Datahounds.Warehouse.db wh_p
  and db_r = Datahounds.Warehouse.db wh_r in
  let prim = Repl.Primary.start ~port:0 db_p in
  let rep =
    Repl.Replica.start ~host:"127.0.0.1" ~port:(Repl.Primary.port prim) db_r
  in
  let srv_p =
    start_server wh_p
      ~done_seq:(fun () -> Db.wal_position db_p)
      ~repl_status:(fun () -> Repl.Primary.status_json prim)
  in
  let srv_r =
    start_server wh_r ~read_only:true
      ~done_seq:(fun () -> Repl.Replica.applied rep)
      ~repl_status:(fun () -> Repl.Replica.status_json rep)
  in
  Fun.protect
    ~finally:(fun () ->
      stop_server srv_r;
      stop_server srv_p;
      Repl.Replica.stop rep;
      Repl.Primary.stop prim;
      Datahounds.Warehouse.close wh_r;
      Datahounds.Warehouse.close wh_p)
  @@ fun () ->
  (* writes sent straight at the replica are refused with the typed code *)
  let direct =
    Client.connect ~retry_for_s:5. ~port:(Server.port srv_r) ()
  in
  (match Client.sql direct "INSERT INTO xml_path VALUES (999, '/nope')" with
   | _ -> Alcotest.fail "replica accepted a write"
   | exception Client.Server_error (code, _) ->
     check Alcotest.string "typed read-only rejection" "READ_ONLY" code);
  (* reads still work on the read-only server *)
  ignore (Client.sql direct "SELECT COUNT(1) FROM xml_path");
  Client.close direct;
  (* routed session: writes to the primary, reads to a caught-up
     replica, read-your-writes in between *)
  let routed =
    Client.Routed.connect ~retry_for_s:5.
      ~replicas:[ ("127.0.0.1", Server.port srv_r) ]
      ~port:(Server.port srv_p) ()
  in
  Fun.protect ~finally:(fun () -> Client.Routed.close routed) @@ fun () ->
  let w1, _ =
    Client.Routed.sql routed
      "CREATE TABLE routed_t (id INTEGER PRIMARY KEY, v INTEGER)"
  in
  ignore w1;
  for i = 1 to 5 do
    ignore
      (Client.Routed.sql routed
         (Printf.sprintf "INSERT INTO routed_t VALUES (%d, %d)" i (i * i)))
  done;
  check Alcotest.bool "writes advanced the read-your-writes fence" true
    (Client.Routed.last_write_seq routed > 0);
  (* every immediate read sees the writes, wherever it was served *)
  let body, _ =
    Client.Routed.sql routed "SELECT COUNT(1) FROM routed_t"
  in
  check Alcotest.bool "read-your-writes" true
    (let sub = "5" in
     let found = ref false in
     String.iteri (fun _ c -> if c = sub.[0] then found := true) body;
     !found);
  (* keep reading: once the replica passes the fence the router must
     start using it *)
  spin ~timeout_s:10.
    (fun () ->
      ignore (Client.Routed.sql routed "SELECT COUNT(1) FROM routed_t");
      Client.Routed.replica_reads routed > 0)
    "a read to be served by the replica";
  (* differential: the same query mix answers identically on both
     sides once the replica has caught up (shipped DDL invalidated any
     cached plan) *)
  Repl.Replica.wait_for rep ~pos:(Db.wal_position db_p) ~timeout_s:10.
  |> check Alcotest.bool "replica caught up for differential" true;
  let c_p = Client.connect ~port:(Server.port srv_p) ()
  and c_r = Client.connect ~port:(Server.port srv_r) () in
  Fun.protect
    ~finally:(fun () ->
      Client.close c_p;
      Client.close c_r)
  @@ fun () ->
  List.iter
    (fun q ->
      let bp, _ = Client.sql c_p q and br, _ = Client.sql c_r q in
      check Alcotest.string (Printf.sprintf "differential: %s" q) bp br)
    [ "SELECT * FROM routed_t ORDER BY id";
      "SELECT COUNT(1) FROM routed_t WHERE v > 4";
      "SELECT id, v FROM routed_t WHERE id = 3" ]

(* Plan caching on a replica. Cached translations key on the schema
   epoch plus xml_path's commit epoch, so shipped writes to an unrelated
   table keep the replica's plans (each read still takes a fresh
   snapshot), while a shipped document load that adds a path moves
   xml_path's commit epoch and the next read translates again and
   returns the new document. *)
let test_replica_plan_cache () =
  with_temp_dir @@ fun dir ->
  let module Wh = Datahounds.Warehouse in
  let wh_p = Wh.create ~wal:(Filename.concat dir "p.wal") () in
  let wh_r = Wh.create ~wal:(Filename.concat dir "r.wal") () in
  let db_p = Wh.db wh_p in
  let prim = Repl.Primary.start ~port:0 db_p in
  let rep =
    Repl.Replica.start ~host:"127.0.0.1" ~port:(Repl.Primary.port prim)
      (Wh.db wh_r)
  in
  Fun.protect
    ~finally:(fun () ->
      Repl.Replica.stop rep;
      Repl.Primary.stop prim;
      Wh.close wh_r;
      Wh.close wh_p)
  @@ fun () ->
  let load ec comments =
    let e : Datahounds.Enzyme.t =
      { ec_number = ec; description = "replica cache enzyme";
        alternate_names = []; catalytic_activities = [ "A ketone reaction" ];
        cofactors = []; comments; prosite_refs = []; swissprot_refs = [];
        diseases = [] }
    in
    match
      Wh.load_document wh_p ~collection:"hlx_enzyme.DEFAULT"
        ~name:(Datahounds.Enzyme_xml.document_name e)
        (Datahounds.Enzyme_xml.to_document e)
    with
    | Ok () -> ()
    | Error m -> Alcotest.failf "load %s: %s" ec m
  in
  load "1.1.1.1" [];
  exec db_p "CREATE TABLE side (k INTEGER PRIMARY KEY, v INTEGER)";
  exec db_p "INSERT INTO side VALUES (1, 0), (2, 0)";
  wait_caught_up db_p rep;
  let ids = {|FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme RETURN $a//enzyme_id|}
  and comments = {|FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme RETURN $a//comment|} in
  let run q = Xomatiq.Engine.run_text wh_r q in
  ignore (run ids);
  check Alcotest.bool "warm replica hits" true (run ids).cached;
  check Alcotest.(list (list string)) "no comment path yet" [] (run comments).rows;
  (* shipped writes to an unrelated table, row count within [2, 3] *)
  for i = 1 to 5 do
    exec db_p (Printf.sprintf "UPDATE side SET v = %d WHERE k = 1" i);
    wait_caught_up db_p rep;
    let r = run ids in
    check Alcotest.bool (Printf.sprintf "hit after shipped write %d" i) true
      r.cached;
    check Alcotest.(list (list string)) "rows unchanged" [ [ "1.1.1.1" ] ] r.rows
  done;
  exec db_p "INSERT INTO side VALUES (3, 0)";
  exec db_p "DELETE FROM side WHERE k = 3";
  wait_caught_up db_p rep;
  check Alcotest.bool "hit after shipped INSERT and DELETE" true (run ids).cached;
  (* a shipped document load that adds the comment paths *)
  load "2.2.2.2" [ "shipped comment" ];
  wait_caught_up db_p rep;
  let r = run comments in
  check Alcotest.bool "new path re-translates" false r.cached;
  check Alcotest.(list (list string)) "new document visible on the replica"
    [ [ "shipped comment" ] ] r.rows;
  check Alcotest.(list (list string)) "both documents"
    [ [ "1.1.1.1" ]; [ "2.2.2.2" ] ] (run ids).rows

(* ================================================================== *)

let () =
  Alcotest.run "replication"
    [ ( "mvcc",
        [ Alcotest.test_case "snapshot reads don't block writers" `Quick
            test_snapshot_reads_dont_block_writers;
          Alcotest.test_case "own writes visible, isolated until commit"
            `Quick test_own_writes_visible;
          Alcotest.test_case "first updater wins" `Quick
            test_first_updater_wins;
          Alcotest.test_case "statement snapshots under a live writer"
            `Quick test_concurrent_scan_consistency ] );
      ( "shipping",
        [ Alcotest.test_case "ship and apply, byte-identical" `Quick
            test_ship_and_apply;
          Alcotest.test_case "bulk-load spool shipping" `Quick
            test_ship_bulk_load;
          Alcotest.test_case "append-before-apply crash recovery" `Quick
            test_append_before_apply_crash;
          Alcotest.test_case "re-apply is idempotent" `Quick
            test_reapply_is_idempotent;
          Alcotest.test_case "replica restart resumes mid-stream" `Quick
            test_replica_restart_resumes;
          Alcotest.test_case "replica plan cache across shipped writes"
            `Quick test_replica_plan_cache ] );
      ( "truncation",
        [ Alcotest.test_case "checkpoint gated by replica acks" `Quick
            test_truncation_gated_by_replica ] );
      ( "routing",
        [ Alcotest.test_case "read-only replicas + routed client" `Quick
            test_routed_reads_and_read_only ] ) ]
