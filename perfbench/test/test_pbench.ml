(* The benchmark's own logic: its streams, its percentiles, its
   open-loop writer, its sync expectations and its host-speed factor. *)

open Pbench

let universe = lazy (Workload.Genbio.generate (Streams.config 11))

let cold_pools () =
  Streams.cold_pools ~seed:11 (Lazy.force universe)
    ~sprot_words:(List.init 600 (Printf.sprintf "word%d"))

let cold_never_repeats () =
  let pools = cold_pools () in
  let stream = Streams.cold_stream ~seed:11 ~n:1500 pools in
  Alcotest.(check int) "length" 1500 (List.length stream);
  let seen = Hashtbl.create 2048 in
  List.iter
    (fun (i : Streams.item) ->
      if Hashtbl.mem seen i.text then Alcotest.failf "repeated text:\n%s" i.text;
      Hashtbl.replace seen i.text ())
    stream;
  (* more than the pools hold must fail, never wrap around *)
  match Streams.cold_stream ~seed:11 ~n:100_000 pools with
  | _ -> Alcotest.fail "a cold stream longer than its pools was built"
  | exception Failure _ -> ()

(* In every prefix, each class appears floor(m/k) or ceil(m/k) times. *)
let check_mix name classes (stream : Streams.item list) =
  let k = List.length classes in
  let counts = Hashtbl.create 16 in
  List.iteri
    (fun idx (i : Streams.item) ->
      Hashtbl.replace counts i.cls
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts i.cls));
      let m = idx + 1 in
      List.iter
        (fun c ->
          let n = Option.value ~default:0 (Hashtbl.find_opt counts c) in
          if n < m / k || n > (m + k - 1) / k then
            Alcotest.failf "%s: class %s has %d of the first %d items" name c n m)
        classes)
    stream

let prefixes_keep_mix () =
  let u = Lazy.force universe in
  let hot = Streams.hot_set u in
  Alcotest.(check int) "hot set: Figs. 8/9/11 + six task classes" 9 (List.length hot);
  check_mix "hot" (List.map (fun (i : Streams.item) -> i.cls) hot)
    (Streams.hot_stream ~seed:3 ~n:1000 hot);
  let pools = cold_pools () in
  check_mix "cold" (List.map fst pools) (Streams.cold_stream ~seed:11 ~n:1500 pools)

let percentile_needs_ten_beyond () =
  let xs n = Array.init n (fun i -> float_of_int (i + 1)) in
  let refused p n =
    match Stats.percentile p (xs n) with Ok _ -> false | Error _ -> true
  in
  Alcotest.(check bool) "p99 of 999 refused" true (refused 0.99 999);
  Alcotest.(check bool) "p99 of 1000 given" false (refused 0.99 1000);
  Alcotest.(check bool) "p90 of 99 refused" true (refused 0.9 99);
  Alcotest.(check bool) "p50 of 19 refused" true (refused 0.5 19);
  Alcotest.(check (float 0.)) "p99 of 1..1000" 990. (Stats.percentile_exn 0.99 (xs 1000));
  Alcotest.(check (float 0.)) "p50 of 1..20" 10. (Stats.percentile_exn 0.5 (xs 20))

let openloop_times_from_due () =
  let clock = ref 0. in
  let t = Openloop.create ~every:3 in
  (* reads finish every 0.1 s: the 3rd and the 6th make writes due *)
  for i = 1 to 7 do
    clock := 0.1 *. float_of_int i;
    Openloop.tick t ~now:!clock
  done;
  Openloop.close t;
  (* the first write stalls for a second; the next takes 10 ms *)
  let send i = clock := !clock +. (if i = 0 then 1.0 else 0.01); true in
  let samples = Openloop.run t ~now:(fun () -> !clock) send in
  Alcotest.(check int) "one write per three reads" 2 (List.length samples);
  let s0 = List.nth samples 0 and s1 = List.nth samples 1 in
  Alcotest.(check (float 1e-9)) "due at the third read" 0.3 s0.due;
  Alcotest.(check (float 1e-9)) "due at the sixth read" 0.6 s1.due;
  Alcotest.(check (float 1e-9)) "lateness reported" 0.4 (Openloop.lateness s0);
  Alcotest.(check (float 1e-9)) "latency counts the wait behind the stall" 1.11
    (Openloop.latency s1);
  Alcotest.(check (float 1e-9)) "a later write stays late, and says so" 1.1
    (Openloop.lateness s1)

let snapshot_diff_is_known () =
  let u = Lazy.force universe in
  let snap, e = Streams.enzyme_snapshot ~seed:11 u in
  let key (x : Datahounds.Enzyme.t) = x.ec_number in
  let old = Hashtbl.create 1024 in
  List.iter (fun x -> Hashtbl.replace old (key x) x) u.enzymes;
  let added = ref 0 and updated = ref 0 and unchanged = ref 0 in
  List.iter
    (fun x ->
      match Hashtbl.find_opt old (key x) with
      | None -> incr added
      | Some y -> if x = y then incr unchanged else incr updated)
    snap;
  let removed = List.length u.enzymes - !updated - !unchanged in
  Alcotest.(check (list int)) "added/updated/removed/unchanged"
    [ e.added; e.updated; e.removed; e.unchanged ]
    [ !added; !updated; removed; !unchanged ];
  Alcotest.(check bool) "every kind of change occurs" true
    (e.added > 0 && e.updated > 0 && e.removed > 0)

let spans_self_and_coverage () =
  let sp = Spans.create () in
  Spans.with_span sp "request" (fun () ->
      Spans.with_span sp "a" (fun () -> Unix.sleepf 0.002);
      Spans.with_span sp "b" (fun () -> Unix.sleepf 0.002));
  let self = Spans.self_of sp "request" in
  Alcotest.(check int) "one request" 1 (Array.length self);
  Alcotest.(check bool) "request self time excludes its children" true
    (self.(0) < Spans.total_of sp "request" -. 0.003);
  let c = Spans.coverage sp ~roots:[ "request" ] in
  Alcotest.(check bool) "children cover most of the request" true (c > 0.5 && c <= 1.)

let hostspeed_factor () =
  (* a clock that advances 10 ms per reading: one unit per reading *)
  let clock = ref 0. in
  let now () = clock := !clock +. 0.01; !clock in
  Alcotest.(check (float 1e-9)) "each kernel's rate over its reference"
    (100. /. Float.sqrt (Hostspeed.alu_reference *. Hostspeed.mem_reference))
    (Hostspeed.probe ~now);
  Alcotest.(check (float 1e-12)) "the mean of the probes" 0.75
    (Hostspeed.factor [ 1.; 0.5 ]);
  Alcotest.check_raises "no probes" (Invalid_argument "Hostspeed.factor: no probes")
    (fun () -> ignore (Hostspeed.factor []))

let () =
  Alcotest.run "perfbench"
    [ ( "streams",
        [ Alcotest.test_case "read-cold never repeats a text" `Quick cold_never_repeats;
          Alcotest.test_case "every prefix keeps the class mix" `Quick prefixes_keep_mix;
          Alcotest.test_case "sync snapshot has the known diff" `Quick snapshot_diff_is_known ] );
      ( "measurement",
        [ Alcotest.test_case "percentile needs ten samples beyond" `Quick
            percentile_needs_ten_beyond;
          Alcotest.test_case "open-loop writer times from due" `Quick openloop_times_from_due;
          Alcotest.test_case "span self time and coverage" `Quick spans_self_and_coverage;
          Alcotest.test_case "host-speed probe and factor" `Quick hostspeed_factor ] ) ]
