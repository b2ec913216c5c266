(* pb — the benchmark's worker. run.py starts it once per step:

     pb prep    --workload W --seed S --seconds N --dir D
     pb load    --workload W --seconds N --dir D --port P
     pb harvest --dir D
     pb trace   --workload W --dir D
     pb probe

   [prep] builds every input of the run from the seed (and computes the
   expected answers with the reference evaluator) before anything is
   timed; [load] is the one load-generating client of a [xomatiq serve]
   process; [harvest] is the harvester process; [trace] replays the same
   streams in-process with spans around each layer's public functions;
   [probe] is the child that [load] and [harvest] ask for host-speed
   probes (see Hostspeed). Every other step writes its figures to a
   JSON file in D. *)

open Pbench
module Engine = Xomatiq.Engine
module Warehouse = Datahounds.Warehouse

let flag name =
  let rec go = function
    | k :: v :: _ when k = "--" ^ name -> v
    | _ :: rest -> go rest
    | [] -> failwith ("missing --" ^ name)
  in
  go (List.tl (Array.to_list Sys.argv))

let now = Unix.gettimeofday

let save path v =
  let oc = open_out_bin path in
  Marshal.to_channel oc v [];
  close_out oc

let load_file path =
  let ic = open_in_bin path in
  let v = Marshal.from_channel ic in
  close_in ic;
  v

let copy_file src dst =
  let ic = open_in_bin src and oc = open_out_bin dst in
  let buf = Bytes.create 65536 in
  let rec go () =
    let n = input ic buf 0 65536 in
    if n > 0 then (output oc buf 0 n; go ())
  in
  go ();
  close_in ic;
  close_out oc

let file_size path = (Unix.stat path).Unix.st_size

(* VmHWM of this process, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> go ()
    | exception End_of_file -> 0
  in
  let kb = go () in
  close_in ic;
  float_of_int kb /. 1024.

(* Host-speed probes (see Hostspeed) run in a [pb probe] child on the
   same core — run.py pins every step — so the probe's allocation meets
   that child's small heap, never the measured process's. *)
type prober = in_channel * out_channel

let start_prober () : prober =
  Unix.open_process_args Sys.executable_name [| Sys.executable_name; "probe" |]

let probe_speed ((ic, oc) : prober) =
  output_char oc '\n';
  flush oc;
  float_of_string (input_line ic)

let stop_prober (p : prober) =
  match Unix.close_process p with
  | Unix.WEXITED 0 -> ()
  | _ -> failwith "pb probe failed"

(* ---------------- JSON output ---------------- *)

type json = Num of float | Int of int | Str of string | Raw of string | Obj of (string * json) list

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let rec json_to_string = function
  | Num f -> if Float.is_finite f then Printf.sprintf "%.17g" f else "null"
  | Int i -> string_of_int i
  | Str s -> json_string s
  | Raw s -> s
  | Obj kvs ->
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> json_string k ^ ": " ^ json_to_string v) kvs)
    ^ "}"

let write_json path kvs =
  let oc = open_out path in
  output_string oc (json_to_string (Obj kvs));
  output_char oc '\n';
  close_out oc

(* ---------------- inputs ---------------- *)

(* What [prep] hands to [load] and [trace] for a read workload. *)
type reads = {
  seed : int;                       (* orders the hot stream *)
  hot : Streams.item list;
  cold : Streams.item list;         (* the timed cold stream *)
  warm : Streams.item list;         (* cold warm-up texts, not in [cold] *)
  expected : (string * string) list;  (* text -> table body *)
}

type harvest_inputs = {
  rels : (string * string) list;
  snapshot : string;
  expect : Streams.sync_expect;
  collections : string list;  (* harvested collections, [scale] docs each *)
}

(* Cold requests per measured second. A fixed count keeps the number of
   distinct texts, and so the unbounded plan cache's size, independent
   of how fast the build under test runs. *)
let cold_per_second = 100
let cold_warmup_per_class = 3
let cold_checked_per_class = 2

(* Longer than any hot window can consume. *)
let hot_stream_len = 200_000

(* The side table the mixed workload writes to. *)
let side_rows = 64

(* The mixed workload writes once per this many reads: about 12 writes
   a second at its read rate on a 2-core host, and at least 100 writes
   in the 1000 reads a window always holds, for a p90. *)
let reads_per_write = 10

let source_named = function
  | "swissprot" -> Warehouse.swissprot_source
  | "medline" -> Warehouse.medline_source
  | "genbank" -> Warehouse.genbank_source
  | "enzyme" -> Warehouse.enzyme_source
  | s -> failwith ("unknown source " ^ s)

let reference_body wh text =
  Engine.result_to_table (Engine.run_text ~mode:`Reference wh text)

let sprot_words wh =
  let _, rows =
    Rdb.Database.query_exn (Warehouse.db wh)
      (Printf.sprintf
         "SELECT DISTINCT k.word FROM xml_keyword k, xml_doc d \
          WHERE k.doc_id = d.doc_id AND d.collection = '%s'"
         Datahounds.Swissprot.collection)
  in
  List.map (fun r -> Rdb.Value.to_string r.(0)) rows

let ok_or_fail = function Ok v -> v | Error m -> failwith m

let prep () =
  let workload = flag "workload" and dir = flag "dir" in
  let seed = int_of_string (flag "seed") in
  let seconds = int_of_string (flag "seconds") in
  let u = Workload.Genbio.generate (Streams.config seed) in
  match workload with
  | "harvest" ->
    let wh = Warehouse.create ~wal:(Filename.concat dir "base.wal") () in
    List.iter
      (fun (src, text) ->
        Warehouse.register_source wh src;
        ignore (ok_or_fail (Warehouse.harvest wh src text)))
      [ (Warehouse.enzyme_source, Workload.Genbio.enzyme_flat u);
        (Warehouse.embl_source ~division:"inv", Workload.Genbio.embl_flat u) ];
    Warehouse.close wh;
    let snapshot, expect = Streams.enzyme_snapshot ~seed u in
    save (Filename.concat dir "harvest.bin")
      { rels = Streams.releases u;
        snapshot = Datahounds.Enzyme.render snapshot;
        expect;
        collections =
          List.map
            (fun s -> (source_named s).source_collection)
            [ "swissprot"; "medline"; "genbank" ] }
  | "read-hot" | "read-cold" | "mixed-rw" ->
    let t0 = now () in
    let wh = Warehouse.create ~wal:(Filename.concat dir "wh.wal") () in
    ok_or_fail (Workload.Genbio.load_universe wh u);
    Printf.eprintf "prep: warehouse loaded in %.2f s\n%!" (now () -. t0);
    if workload = "mixed-rw" then begin
      let db = Warehouse.db wh in
      ignore (Rdb.Database.exec_exn db "CREATE TABLE bench_side (k INT, v INT)");
      for k = 0 to side_rows - 1 do
        ignore
          (Rdb.Database.exec_exn db
             (Printf.sprintf "INSERT INTO bench_side VALUES (%d, 0)" k))
      done
    end;
    let hot = Streams.hot_set u in
    let cold, warm, checked =
      if workload <> "read-cold" then ([], [], [])
      else begin
        let pools = Streams.cold_pools ~seed u ~sprot_words:(sprot_words wh) in
        let cold = Streams.cold_stream ~seed ~n:(cold_per_second * seconds) pools in
        let warm =
          List.concat_map
            (fun (cls, p) ->
              List.init cold_warmup_per_class (fun i ->
                  { Streams.cls; text = p.(Array.length p - 1 - i) }))
            pools
        in
        let in_cold = Hashtbl.create 4096 in
        List.iter (fun (i : Streams.item) -> Hashtbl.replace in_cold i.text ()) cold;
        if List.exists (fun (i : Streams.item) -> Hashtbl.mem in_cold i.text) warm then
          failwith "cold warm-up texts overlap the stream";
        (* a seeded sample: the first texts of each class in the stream *)
        let checked =
          List.concat_map
            (fun (cls, _) ->
              List.filteri
                (fun i _ -> i < cold_checked_per_class)
                (List.filter (fun (i : Streams.item) -> i.cls = cls) cold))
            pools
        in
        (cold, warm, checked)
      end
    in
    let expected =
      List.map
        (fun (i : Streams.item) -> (i.text, reference_body wh i.text))
        (hot @ checked)
    in
    Printf.eprintf "prep: streams and expected answers ready at %.2f s\n%!" (now () -. t0);
    Warehouse.close wh;
    save (Filename.concat dir "reads.bin") { seed; hot; cold; warm; expected };
    let oc = open_out (Filename.concat dir "probe.txt") in
    output_string oc Streams.fig9;
    close_out oc
  | w -> failwith ("unknown workload " ^ w)

(* ---------------- load: the client of [xomatiq serve] ---------------- *)

type read_sample = { lat_s : float; exec_ms : float }

let load () =
  let workload = flag "workload" and dir = flag "dir" in
  let seconds = float_of_string (flag "seconds") in
  let port = int_of_string (flag "port") in
  let r : reads = load_file (Filename.concat dir "reads.bin") in
  let expected = Hashtbl.create 64 in
  List.iter (fun (t, b) -> Hashtbl.replace expected t b) r.expected;
  let connect () = Xserver.Client.connect ~retry_for_s:10. ~timeout_s:60. ~port () in
  let lock = Mutex.create () in
  let locked f = Mutex.lock lock; Fun.protect ~finally:(fun () -> Mutex.unlock lock) f in
  let attempted = ref 0 and failed = ref 0 in
  let errors = ref [] in
  let fail msg =
    incr failed;
    if List.length !errors < 5 then errors := msg :: !errors
  in
  (* one read: error frames and wrong answers are failures *)
  let read conn (item : Streams.item) =
    let t0 = now () in
    let res =
      try Ok (Xserver.Client.query conn item.text)
      with
      | Xserver.Client.Server_error (c, m) -> Error (c ^ " " ^ m)
      | e -> Error (Printexc.to_string e)
    in
    let t1 = now () in
    locked (fun () ->
        incr attempted;
        match res with
        | Error m -> fail (item.cls ^ ": " ^ m); None
        | Ok (body, sum) ->
          (match Hashtbl.find_opt expected item.text with
           | Some b when b <> body -> fail (item.cls ^ ": wrong answer"); None
           | _ -> Some { lat_s = t1 -. t0; exec_ms = sum.Xserver.Protocol.sum_exec_ms }))
  in
  let readers = if workload = "mixed-rw" then 1 else 2 in
  let conns = List.init readers (fun _ -> connect ()) in
  (* warm-up, outside the window: hot texts get planned and cached,
     cold warm-up texts are never part of the stream *)
  List.iter
    (fun c ->
      List.iter (fun i -> ignore (read c i))
        (if workload = "read-cold" then r.warm else r.hot @ r.hot))
    conns;
  let writer_conn = if workload = "mixed-rw" then Some (connect ()) else None in
  let stream =
    ref
      (if workload = "read-cold" then r.cold
       else Streams.hot_stream ~seed:r.seed ~n:hot_stream_len r.hot)
  in
  let metrics () = Xserver.Client.metrics (List.hd conns) in
  (* Host-speed probes (see Hostspeed) run in pauses with no request in
     flight. Time stands still for the workload during a pause: its
     clock [vnow] runs only while unpaused, so the window holds
     [seconds] of traffic and a write held up by a pause is not charged
     for it. *)
  let host = start_prober () in
  let speeds = ref [ probe_speed host ] in
  let paused = ref false and pause_t0 = ref 0. and paused_s = ref 0. in
  let inflight = ref 0 and finished = ref false in
  let cond = Condition.create () in
  let vnow_unlocked () = (if !paused then !pause_t0 else now ()) -. !paused_s in
  let vnow () = locked vnow_unlocked in
  (* start a request once no pause is on; [leave] ends it *)
  let enter () =
    while !paused do Condition.wait cond lock done;
    incr inflight
  in
  let leave () = decr inflight; Condition.broadcast cond in
  let m0 = metrics () in
  (* min reads so that a p99 has ten samples beyond it *)
  let min_reads = 1000 in
  let t_start = vnow () in
  let t_end = t_start +. seconds in
  let issued = ref 0 in
  let next () =
    locked (fun () ->
        enter ();
        if workload <> "read-cold" && !issued >= min_reads && vnow_unlocked () >= t_end
        then (leave (); None)
        else
          match !stream with
          | [] -> leave (); None
          | i :: rest -> stream := rest; incr issued; Some i)
  in
  let samples = ref [] and t_last = ref t_start in
  (* the mixed workload's writes fall due as the reads complete *)
  let trigger =
    Option.map (fun _ -> Openloop.create ~every:reads_per_write) writer_conn
  in
  let reader c () =
    let rec go () =
      match next () with
      | None -> ()
      | Some item ->
        let r = read c item in
        locked (fun () ->
            leave ();
            (match r with
             | Some s -> samples := s :: !samples; t_last := vnow_unlocked ()
             | None -> ());
            Option.iter (fun t -> Openloop.tick t ~now:(vnow_unlocked ())) trigger);
        go ()
    in
    go ()
  in
  let prober () =
    let rec go () =
      Thread.delay Hostspeed.slice_s;
      if not (locked (fun () -> !finished)) then begin
        locked (fun () ->
            paused := true;
            pause_t0 := now ();
            while !inflight > 0 do Condition.wait cond lock done);
        let speed = probe_speed host in
        locked (fun () ->
            speeds := speed :: !speeds;
            paused := false;
            paused_s := !paused_s +. (now () -. !pause_t0);
            Condition.broadcast cond);
        go ()
      end
    in
    go ()
  in
  let last_v = Array.make side_rows 0 in
  let writes = ref [] in
  let writer c () =
    let send i =
      let k = i mod side_rows and v = i + 1 in
      locked enter;
      Fun.protect ~finally:(fun () -> locked (fun () -> incr attempted; leave ()))
        (fun () ->
          match
            Xserver.Client.sql c
              (Printf.sprintf "UPDATE bench_side SET v = %d WHERE k = %d" v k)
          with
          | "1 row(s) affected\n", _ -> last_v.(k) <- v; true
          | body, _ -> locked (fun () -> fail ("write: " ^ String.trim body)); false
          | exception Xserver.Client.Server_error (code, m) ->
            locked (fun () -> fail ("write: " ^ code ^ " " ^ m)); false)
    in
    writes := Openloop.run (Option.get trigger) ~now:vnow send;
    Xserver.Client.close c
  in
  let reader_threads = List.map (fun c -> Thread.create (reader c) ()) conns in
  let writer_thread = Option.map (fun c -> Thread.create (writer c) ()) writer_conn in
  let probe_thread = Thread.create prober () in
  List.iter Thread.join reader_threads;
  Option.iter Openloop.close trigger;
  Option.iter Thread.join writer_thread;
  locked (fun () -> finished := true);
  Thread.join probe_thread;
  speeds := probe_speed host :: !speeds;
  stop_prober host;
  let f = Hostspeed.factor !speeds in
  let window = !t_last -. t_start in
  let m1 = metrics () in
  if workload = "mixed-rw" then begin
    (* the side table must hold exactly the committed writes *)
    incr attempted;
    let body, _ =
      Xserver.Client.sql (List.hd conns) "SELECT k, v FROM bench_side ORDER BY k"
    in
    let want =
      Xomatiq.Tagger.to_table ~labels:[ "k"; "v" ]
        (List.init side_rows (fun k -> [ string_of_int k; string_of_int last_v.(k) ]))
    in
    if body <> want then fail "side table does not match the committed writes"
  end;
  List.iter Xserver.Client.close conns;
  (* every timed figure as it would read on a reference core *)
  let ms x = 1000. *. x *. f in
  let lat = Array.of_list (List.map (fun s -> ms s.lat_s) !samples) in
  let outside =
    Array.of_list (List.map (fun s -> ms s.lat_s -. (s.exec_ms *. f)) !samples)
  in
  let wl = Array.of_list (List.map (fun s -> ms (Openloop.latency s)) !writes) in
  let late = Array.of_list (List.map (fun s -> ms (Openloop.lateness s)) !writes) in
  let pct p xs = match Stats.percentile p xs with Ok v -> Num v | Error _ -> Raw "null" in
  write_json (Filename.concat dir "load.json")
    ([ ("attempted", Int !attempted); ("failed", Int !failed);
       ("errors", Str (String.concat " | " (List.rev !errors)));
       ("reads", Int (Array.length lat)); ("window_s", Num window);
       ("qps", Num (float_of_int (Array.length lat) /. window /. f));
       ("host_factor", Num f); ("probes", Int (List.length !speeds));
       ("read_p50_ms", pct 0.5 lat); ("read_p99_ms", pct 0.99 lat);
       ("outside_p50_ms", pct 0.5 outside); ("outside_p99_ms", pct 0.99 outside) ]
     @ (if workload = "mixed-rw" then
          [ ("writes", Int (Array.length wl)); ("write_p50_ms", pct 0.5 wl);
            ("write_p90_ms", pct 0.9 wl); ("write_late_p50_ms", pct 0.5 late);
            ("write_late_p90_ms", pct 0.9 late);
            ("write_late_max_ms", Num (Array.fold_left Float.max 0. late)) ]
        else [])
     @ [ ("scale", Int Streams.scale); ("m0", Raw m0); ("m1", Raw m1) ])

(* ---------------- harvest: the harvester process ---------------- *)

(* Harvest passes per run, each on a freshly reopened base and each
   ending with the sync. One pass's releases take under 3 s at scale
   500, too short a window to be steady on a shared host. *)
let harvest_passes = 2

let harvest () =
  let dir = flag "dir" in
  let h : harvest_inputs = load_file (Filename.concat dir "harvest.bin") in
  let base = Filename.concat dir "base.wal" and work = Filename.concat dir "work.wal" in
  let setups = ref [] in
  (* host-speed probes between timed steps, at least [slice_s] apart
     during a phase (see Hostspeed) *)
  let host = start_prober () in
  let speeds = ref [] and last_probe = ref 0. in
  let probe () =
    speeds := probe_speed host :: !speeds;
    last_probe := now ()
  in
  let probe_if_due () = if now () -. !last_probe >= Hostspeed.slice_s then probe () in
  (* every reopen starts from a compacted heap, so the high-water mark
     does not depend on when the previous warehouse was collected *)
  let reopen () =
    Gc.compact ();
    copy_file base work;
    probe ();
    let t0 = now () in
    let wh = Warehouse.create ~wal:work () in
    setups := (now () -. t0) :: !setups;
    wh
  in
  for _ = 1 to 2 do Warehouse.close (reopen ()) done;
  let attempted = ref 0 and failed = ref 0 and errors = ref [] in
  let fail m =
    incr failed;
    if List.length !errors < 5 then errors := m :: !errors
  in
  let docs = ref 0 and harvest_s = ref 0. and rel_ms = ref [] and wal_bytes = ref 0 in
  let synced = ref 0 and sync_s = ref 0. and storage = ref "" in
  let e = h.expect in
  (* one pass: every release, ANALYZE, then the sync *)
  let pass () =
    let wh = reopen () in
    List.iter
      (fun s -> Warehouse.register_source wh (source_named s))
      (List.sort_uniq compare (List.map fst h.rels));
    let wal0 = file_size work in
    List.iter
      (fun (s, text) ->
        incr attempted;
        let t = now () in
        (match Warehouse.harvest_stats ~analyze:false wh (source_named s) text with
         | Ok st -> docs := !docs + st.docs
         | Error m -> fail (s ^ ": " ^ m));
        let d = now () -. t in
        harvest_s := !harvest_s +. d;
        rel_ms := (1000. *. d) :: !rel_ms;
        probe_if_due ())
      h.rels;
    let t0 = now () in
    List.iter
      (fun tbl -> ignore (Rdb.Database.exec_exn (Warehouse.db wh) ("ANALYZE " ^ tbl)))
      Datahounds.Shred.tables;
    harvest_s := !harvest_s +. (now () -. t0);
    probe ();
    wal_bytes := !wal_bytes + (file_size work - wal0);
    incr attempted;
    List.iter
      (fun c ->
        let n = Warehouse.document_count wh ~collection:c in
        if n <> Streams.scale then fail (Printf.sprintf "%s holds %d documents" c n))
      h.collections;
    incr attempted;
    let t0 = now () in
    let report =
      Datahounds.Sync.sync_source ~remove_missing:true wh Warehouse.enzyme_source
        h.snapshot
    in
    sync_s := !sync_s +. (now () -. t0);
    probe ();
    synced := !synced + e.added + e.updated + e.removed + e.unchanged;
    (match report with
     | Ok r
       when r.added = e.added && r.updated = e.updated && r.removed = e.removed
            && r.unchanged = e.unchanged -> ()
     | Ok r ->
       fail
         (Printf.sprintf "sync report %d/%d/%d/%d, expected %d/%d/%d/%d" r.added
            r.updated r.removed r.unchanged e.added e.updated e.removed e.unchanged)
     | Error m -> fail ("sync: " ^ m));
    storage := Xserver.Server.storage_json wh;
    Warehouse.close wh
  in
  for _ = 1 to harvest_passes do pass () done;
  (* every timed figure as it would read on a reference core *)
  stop_prober host;
  let f = Hostspeed.factor !speeds in
  let harvest_s = !harvest_s *. f and sync_s = !sync_s *. f in
  let rel = Array.of_list (List.map (fun x -> x *. f) !rel_ms) in
  write_json (Filename.concat dir "harvest.json")
    [ ("attempted", Int !attempted); ("failed", Int !failed);
      ("errors", Str (String.concat " | " (List.rev !errors)));
      ("setup_s", Num (f *. Stats.median (Array.of_list !setups)));
      ("host_factor", Num f); ("probes", Int (List.length !speeds));
      ("docs", Int !docs); ("harvest_s", Num harvest_s);
      ("sync_docs", Int !synced); ("sync_s", Num sync_s);
      ("ops_per_s", Num (float_of_int (!docs + !synced) /. (harvest_s +. sync_s)));
      ("harvest_docs_per_s", Num (float_of_int !docs /. harvest_s));
      ("sync_docs_per_s", Num (float_of_int !synced /. sync_s));
      ("p50_ms", Num (Stats.percentile_exn 0.5 rel));
      ("tail_ms", Num (Stats.percentile_exn 0.9 rel));
      ("wal_bytes_per_doc", Num (float_of_int !wal_bytes /. float_of_int !docs));
      ("peak_rss_mb", Num (peak_rss_mb ())); ("scale", Int Streams.scale);
      ("storage", Raw !storage) ]

(* ---------------- trace: the in-process replay ---------------- *)

(* Reads per traced replay; a read-cold or mixed request plans twice in
   the traced pass (see [traced_read]), so those replays are shorter. *)
let trace_reads = function "read-hot" -> 1000 | _ -> 500

(* The traced mixed replay writes once per this many reads, about the
   ratio of the end-to-end mixed workload. *)
let trace_reads_per_write = 8

let strategy = `Keyword_index

let stage_names =
  [ "xomatiq.parse"; "xomatiq.xq2sql"; "rdb.sql_parse"; "rdb.plan";
    "rdb.execute"; "xomatiq.tag" ]

let string_rows rows =
  List.sort_uniq compare
    (List.map (fun row -> Array.to_list (Array.map Rdb.Value.to_string row)) rows)

let per_doc total n = if n > 0 then 1000. *. total /. float_of_int n else 0.

(* One read through each layer's public function. A plan is reused while
   the engine's own cache would still hold it ([Engine.prepared_valid]
   on the engine's preparation of the same text), so the replay plans
   exactly when the server would. *)
let traced_read sp wh memo ~touched ~returned ~oracle_s text =
  let sp = !sp in
  let db = Warehouse.db wh in
  let span name f = Spans.with_span sp name f in
  let cached =
    match Hashtbl.find_opt memo text with
    | Some (pt, plan) when Engine.prepared_valid ~contains_strategy:strategy wh pt ->
      Some plan
    | _ -> None
  in
  let body, plan =
    span "request" (fun () ->
        let ((labels, planned) as plan) =
          match cached with
          | Some p -> p
          | None ->
            let ast = span "xomatiq.parse" (fun () -> Xomatiq.Parser.parse text) in
            let tr =
              span "xomatiq.xq2sql" (fun () ->
                  Xomatiq.Xq2sql.translate ~contains_strategy:strategy db ast)
            in
            if tr.statically_empty then (tr.labels, None)
            else
              let sel =
                span "rdb.sql_parse" (fun () ->
                    match Rdb.Sql_parser.parse tr.sql with
                    | Rdb.Sql_ast.Select_stmt sel -> sel
                    | _ -> failwith "translation is not a SELECT")
              in
              (tr.labels, Some (span "rdb.plan" (fun () -> Rdb.Database.plan_select db sel)))
        in
        let rows =
          match planned with
          | None -> []
          | Some p ->
            let obs = Rdb.Obs.create p.Rdb.Planner.plan in
            let _, rows =
              span "rdb.execute" (fun () -> Rdb.Database.run_planned db ~obs p)
            in
            touched := !touched + Rdb.Obs.total_rows obs;
            rows
        in
        let body =
          span "xomatiq.tag" (fun () ->
              let rows = string_rows rows in
              returned := !returned + List.length rows;
              Xomatiq.Tagger.to_table ~labels rows)
        in
        (body, plan))
  in
  if cached = None then begin
    (* outside the request span, and not charged to the replay: keeps
       the engine's cache in step *)
    let t0 = now () in
    Hashtbl.replace memo text
      (Engine.prepare_text ~contains_strategy:strategy wh text, plan);
    oracle_s := !oracle_s +. (now () -. t0)
  end;
  body

(* The server's own path for one read, untraced. *)
let plain_read wh text =
  let pt = Engine.prepare_text ~contains_strategy:strategy wh text in
  Engine.result_to_table
    (Engine.run_prepared_text ~cached:(Engine.prepared_hit pt) pt)

let side_write db i =
  Printf.sprintf "UPDATE bench_side SET v = %d WHERE k = %d" (i + 1) (i mod side_rows)
  |> Rdb.Database.exec_exn db |> ignore

let reset_caches () =
  Engine.cache_clear ();
  Xomatiq.Xq2sql.path_cache_clear ()

let trace_reads_workload workload dir =
  let r : reads = load_file (Filename.concat dir "reads.bin") in
  let wal = Filename.concat dir "trace.wal" in
  copy_file (Filename.concat dir "wh.wal") wal;
  let wh = Warehouse.create ~wal () in
  let db = Warehouse.db wh in
  let n = trace_reads workload in
  let stream, warm =
    if workload = "read-cold" then (List.filteri (fun i _ -> i < n) r.cold, r.warm)
    else (Streams.hot_stream ~seed:r.seed ~n r.hot, r.hot)
  in
  let expected = Hashtbl.create 64 in
  List.iter (fun (t, b) -> Hashtbl.replace expected t b) r.expected;
  let failed = ref 0 and attempted = ref 0 in
  let check (i : Streams.item) body =
    incr attempted;
    match Hashtbl.find_opt expected i.text with
    | Some b when b <> body -> incr failed
    | _ -> ()
  in
  let writes = workload = "mixed-rw" in
  (* the same warm-up, stream and writes, untraced then traced *)
  let replay ?(after_warmup = ignore) read write =
    reset_caches ();
    List.iter (fun (i : Streams.item) -> check i (read i.text)) warm;
    after_warmup ();
    let t0 = now () in
    List.iteri
      (fun k (i : Streams.item) ->
        check i (read i.text);
        if writes && (k + 1) mod trace_reads_per_write = 0 then write k)
      stream;
    now () -. t0
  in
  let untraced_s = replay (plain_read wh) (side_write db) in
  (* the warm-up's spans are dropped with the recorder they went to *)
  let spr = ref (Spans.create ()) in
  let memo = Hashtbl.create 1024 in
  let touched = ref 0 and returned = ref 0 and oracle_s = ref 0. in
  let traced_write k =
    let sp = !spr in
    Spans.with_span sp "write" (fun () ->
        ignore (Rdb.Database.exec_exn db "BEGIN");
        Spans.with_span sp "rdb.dml" (fun () -> side_write db k);
        Spans.with_span sp "rdb.commit" (fun () ->
            ignore (Rdb.Database.exec_exn db "COMMIT")))
  in
  let traced_s =
    replay
      ~after_warmup:(fun () ->
        spr := Spans.create ();
        touched := 0;
        returned := 0;
        oracle_s := 0.)
      (traced_read spr wh memo ~touched ~returned ~oracle_s)
      traced_write
    -. !oracle_s
  in
  let sp = !spr in
  Printf.eprintf "trace: untraced %.3f s, traced %.3f s, planning outside spans %.3f s\n%!"
    untraced_s traced_s !oracle_s;
  Warehouse.close wh;
  Spans.write sp (Filename.concat dir "spans.tsv");
  let request_total = Spans.total_of sp "request" in
  let stages =
    List.concat_map
      (fun name ->
        let self = Spans.self_of sp name in
        [ (name ^ "_ms", Num (1000. *. Stats.median self));
          ( name ^ "_share",
            Num (Array.fold_left ( +. ) 0. self /. request_total) ) ])
      stage_names
  in
  [ ("attempted", Int !attempted); ("failed", Int !failed) ]
  @ stages
  @ [ ( "rdb.rows_touched_per_row_returned",
        Num (float_of_int !touched /. float_of_int (max 1 !returned)) );
      ("rdb.commit_ms", Num (1000. *. Stats.median (Spans.self_of sp "rdb.commit")));
      ("trace.coverage", Num (Spans.coverage sp ~roots:[ "request" ]));
      ("trace.qps_ratio", Num (untraced_s /. traced_s)) ]

(* The harvest and sync, once through [Warehouse] (untraced) and once
   through the public functions the warehouse calls, each with a span. *)
let trace_harvest dir =
  let h : harvest_inputs = load_file (Filename.concat dir "harvest.bin") in
  let open_base () =
    let wal = Filename.concat dir "trace.wal" in
    copy_file (Filename.concat dir "base.wal") wal;
    let wh = Warehouse.create ~wal () in
    List.iter
      (fun s -> Warehouse.register_source wh (source_named s))
      ("enzyme" :: List.sort_uniq compare (List.map fst h.rels));
    wh
  in
  let analyze db =
    List.iter (fun tbl -> ignore (Rdb.Database.exec_exn db ("ANALYZE " ^ tbl)))
      Datahounds.Shred.tables
  in
  let failed = ref 0 and attempted = ref 0 in
  let expect_report (r : Datahounds.Sync.report) =
    let e = h.expect in
    incr attempted;
    if not (r.added = e.added && r.updated = e.updated && r.removed = e.removed
            && r.unchanged = e.unchanged)
    then incr failed
  in
  let wh = open_base () in
  let t0 = now () in
  List.iter
    (fun (s, text) ->
      ignore (ok_or_fail (Warehouse.harvest_stats ~analyze:false wh (source_named s) text)))
    h.rels;
  analyze (Warehouse.db wh);
  expect_report
    (ok_or_fail
       (Datahounds.Sync.sync_source ~remove_missing:true wh Warehouse.enzyme_source
          h.snapshot));
  let untraced_s = now () -. t0 in
  Warehouse.close wh;
  let wh = open_base () in
  let db = Warehouse.db wh in
  let sp = Spans.create () in
  let span name f = Spans.with_span sp name f in
  let docs = ref 0 and rows = ref 0 in
  let t0 = now () in
  List.iter
    (fun (s, text) ->
      let src = source_named s in
      let collection = src.source_collection in
      span "harvest" (fun () ->
          let dtd = Option.get (Warehouse.dtd_of wh ~collection) in
          let sequence_elements = Warehouse.sequence_elements_of wh ~collection in
          let entries = span "datahounds.transform" (fun () -> src.transform text) in
          let prepared =
            List.map
              (fun (name, (doc : Gxml.Tree.document)) ->
                if span "gxml.validate" (fun () -> Gxml.Dtd.validate dtd doc.root) <> []
                then failwith ("invalid document " ^ name);
                span "datahounds.shred" (fun () ->
                    Datahounds.Shred.prepare ~sequence_elements ~collection ~name doc))
              entries
          in
          let installed =
            span "datahounds.install" (fun () ->
                if Rdb.Database.is_disk db then
                  ok_or_fail (Datahounds.Shred.install_prepared_bulk db prepared)
                else
                  List.map
                    (fun p -> ok_or_fail (Datahounds.Shred.install_prepared db p))
                    prepared)
          in
          List.iter
            (fun (_, (st : Datahounds.Shred.stats)) ->
              incr docs;
              rows := !rows + 1 + st.nodes + st.keywords)
            installed))
    h.rels;
  span "analyze" (fun () ->
      List.iter
        (fun tbl ->
          span "rdb.analyze" (fun () ->
              ignore (Rdb.Database.exec_exn db ("ANALYZE " ^ tbl))))
        Datahounds.Shred.tables);
  let collection = Warehouse.enzyme_source.source_collection in
  let report =
    span "sync" (fun () ->
        let snapshot =
          span "datahounds.transform_sync" (fun () ->
              Warehouse.enzyme_source.transform h.snapshot)
        in
        let names = Hashtbl.create 1024 in
        List.iter (fun (n, _) -> Hashtbl.replace names n ()) snapshot;
        let existing = Warehouse.documents wh ~collection in
        ignore (Rdb.Database.exec_exn db "BEGIN");
        let added = ref 0 and updated = ref 0 and unchanged = ref 0 and removed = ref 0 in
        let install name doc =
          span "datahounds.sync.install" (fun () ->
              ok_or_fail (Warehouse.load_document wh ~collection ~name doc))
        in
        List.iter
          (fun (name, (doc : Gxml.Tree.document)) ->
            match
              span "datahounds.sync.reconstruct" (fun () ->
                  Warehouse.get_document wh ~collection ~name)
            with
            | None -> install name doc; incr added
            | Some old ->
              if span "gxml.diff" (fun () -> Gxml.Diff.diff old.root doc.root) = []
              then incr unchanged
              else (install name doc; incr updated))
          snapshot;
        List.iter
          (fun name ->
            if not (Hashtbl.mem names name) then begin
              span "datahounds.sync.delete" (fun () ->
                  ignore (Datahounds.Shred.delete_document db ~collection ~name));
              incr removed
            end)
          existing;
        span "datahounds.sync.commit" (fun () ->
            ignore (Rdb.Database.exec_exn db "COMMIT"));
        { Datahounds.Sync.added = !added; updated = !updated; removed = !removed;
          unchanged = !unchanged })
  in
  let traced_s = now () -. t0 in
  expect_report report;
  Warehouse.close wh;
  Spans.write sp (Filename.concat dir "spans.tsv");
  let total name = Spans.total_of sp name in
  let count name = Array.length (Spans.self_of sp name) in
  [ ("attempted", Int !attempted); ("failed", Int !failed);
    ("datahounds.transform_ms_per_doc", Num (per_doc (total "datahounds.transform") !docs));
    ("gxml.validate_ms_per_doc", Num (per_doc (total "gxml.validate") !docs));
    ("datahounds.shred_ms_per_doc", Num (per_doc (total "datahounds.shred") !docs));
    ("datahounds.install_ms_per_doc", Num (per_doc (total "datahounds.install") !docs));
    ("rdb.analyze_ms", Num (1000. *. total "rdb.analyze"));
    ("datahounds.rows_per_doc", Num (float_of_int !rows /. float_of_int (max 1 !docs)));
    ( "datahounds.sync.reconstruct_ms_per_doc",
      Num (per_doc (total "datahounds.sync.reconstruct") (count "datahounds.sync.reconstruct")) );
    ("gxml.diff_ms_per_doc", Num (per_doc (total "gxml.diff") (count "gxml.diff")));
    ("trace.coverage", Num (Spans.coverage sp ~roots:[ "harvest"; "analyze"; "sync" ]));
    ("trace.qps_ratio", Num (untraced_s /. traced_s)) ]

let trace () =
  let workload = flag "workload" and dir = flag "dir" in
  let figures =
    if workload = "harvest" then trace_harvest dir else trace_reads_workload workload dir
  in
  write_json (Filename.concat dir "trace.json") figures

let () =
  Conc.Pool.set_jobs 1;
  match Sys.argv with
  | [| _ |] -> prerr_endline "usage: pb (prep | load | harvest | trace | probe) ..."; exit 2
  | _ ->
    (match Sys.argv.(1) with
     | "prep" -> prep ()
     | "load" -> load ()
     | "harvest" -> harvest ()
     | "trace" -> trace ()
     | "probe" ->
       (* one probe per line read, its speed printed back, until EOF *)
       Hostspeed.warm_up ~now;
       (try
          while true do
            ignore (input_line stdin);
            Printf.printf "%.17g\n%!" (Hostspeed.probe ~now)
          done
        with End_of_file -> ())
     | c -> prerr_endline ("unknown command " ^ c); exit 2)
