(* Host speed. The benchmark shares its host, and on a 2-vCPU guest one
   core's speed swings by up to 1.8x within seconds as neighbours come
   and go: the same run then reads 25% apart from one minute to the
   next. So every process the benchmark times runs pinned to one core
   (run.py), and between slices of the timed work, with nothing in
   flight, a [pb probe] child on that core runs a probe: fixed kernels
   that use only the standard library, so no change to the program
   under test can move them. A run's timed figures are scaled by the
   [factor] of its probes, which reports them as they would read on a
   core running at the kernels' reference rates. *)

(* Two kernels, so that the probe sees both what a core computes and
   how fast it reaches memory: a slow spell of the host stretches both
   alike, but a quiet neighbour speeds up arithmetic far more than
   memory-bound work such as a harvest or a scan, and either kernel
   alone misread one kind of workload. *)

(* One unit of arithmetic: what an interpreter's inner loop does —
   allocate, hash, compare and sort — within the core's own caches. *)
let alu_unit () =
  let h = Hashtbl.create 256 in
  for i = 0 to 511 do
    Hashtbl.replace h (string_of_int (i * 7919)) i
  done;
  let acc = ref [] in
  for i = 0 to 511 do
    match Hashtbl.find_opt h (string_of_int (i * 7919)) with
    | Some v -> acc := v :: !acc
    | None -> ()
  done;
  ignore (Sys.opaque_identity (List.sort compare !acc))

let buf = Bytes.make (4 lsl 20) '\000'

(* One unit of memory traffic: 2^15 dependent pseudo-random byte
   updates across 4 MiB; allocates nothing. *)
let mem_unit () =
  let mask = Bytes.length buf - 1 in
  let x = ref 0x2545F491 in
  for _ = 1 to 1 lsl 15 do
    x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
    let i = !x land mask in
    Bytes.unsafe_set buf i
      (Char.unsafe_chr ((Char.code (Bytes.unsafe_get buf i) + !x) land 255))
  done

(* Units per second of each kernel, about its mean rate on the 2-vCPU
   host the benchmark was tuned on. *)
let alu_reference = 4600.
let mem_reference = 5000.

(* How long one probe runs, half on each kernel. *)
let window_s = 0.1

(* Time between probes during a timed phase. *)
let slice_s = 1.0

let rate ~now f =
  let t0 = now () in
  let rec go n =
    f ();
    let t = now () -. t0 in
    if t >= window_s /. 2. then float_of_int (n + 1) /. t else go (n + 1)
  in
  go 0

(* One probe: the host's speed relative to the reference, the geometric
   mean of the two kernels' rates over their references; below 1 on a
   slow host. *)
let probe ~now =
  let alu = rate ~now alu_unit /. alu_reference in
  let mem = rate ~now mem_unit /. mem_reference in
  Float.sqrt (alu *. mem)

(* A process's first probe pays for faulting in its heap; run it and
   throw it away. *)
let warm_up ~now = ignore (probe ~now)

(* A run's factor: the mean of its probes. A time measured on the host,
   multiplied by the factor, is the time on a reference core; a rate is
   divided by it. *)
let factor probes =
  match probes with
  | [] -> invalid_arg "Hostspeed.factor: no probes"
  | _ -> List.fold_left ( +. ) 0. probes /. float_of_int (List.length probes)
