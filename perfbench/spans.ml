(* In-memory span recorder for the traced run. A span is one call into
   a layer's public function, timed by the benchmark around the call;
   nesting follows the call stack. Nothing is written until the run
   ends. *)

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  name : string;
  start : float;
  stop : float;
}

type t = {
  mutable spans : span list;  (* finished, newest first *)
  mutable stack : int list;
  mutable next : int;
}

let create () = { spans = []; stack = []; next = 1 }

let with_span t name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.stack with p :: _ -> p | [] -> 0 in
  t.stack <- id :: t.stack;
  let start = Unix.gettimeofday () in
  let finish () =
    let stop = Unix.gettimeofday () in
    t.stack <- List.tl t.stack;
    t.spans <- { id; parent; name; start; stop } :: t.spans
  in
  match f () with
  | v -> finish (); v
  | exception e -> finish (); raise e

let spans t = List.rev t.spans

let duration s = s.stop -. s.start

(* Self time of every span: its duration minus its children's. *)
let self_times t =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child s.parent
          (duration s +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    t.spans;
  List.map
    (fun s ->
      (s, duration s -. Option.value ~default:0. (Hashtbl.find_opt child s.id)))
    (spans t)

(* Self times (seconds) of the spans called [name]. *)
let self_of t name =
  List.filter_map
    (fun (s, self) -> if s.name = name then Some self else None)
    (self_times t)
  |> Array.of_list

let total_of t name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. duration s else acc)
    0. t.spans

(* Share of the root spans' time (those named in [roots]) that their
   direct children cover: how much of each request the stage spans
   account for. *)
let coverage t ~roots:names =
  let roots = Hashtbl.create 1024 in
  List.iter (fun s -> if List.mem s.name names then Hashtbl.replace roots s.id ()) t.spans;
  let covered =
    List.fold_left
      (fun acc s -> if Hashtbl.mem roots s.parent then acc +. duration s else acc)
      0. t.spans
  in
  let total = List.fold_left (fun acc n -> acc +. total_of t n) 0. names in
  if total > 0. then covered /. total else 0.

let write t path =
  let oc = open_out path in
  output_string oc "id\tparent\tname\tstart_s\tdur_us\n";
  List.iter
    (fun s ->
      Printf.fprintf oc "%d\t%d\t%s\t%.6f\t%.1f\n" s.id s.parent s.name s.start
        (1e6 *. duration s))
    (spans t);
  close_out oc
