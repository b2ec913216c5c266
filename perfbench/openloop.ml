(* Open-loop request generation. Request [i] falls due when the traffic
   it rides on says so — every [every]-th read the readers complete —
   and one generator sends it whatever happened to the requests before
   it. Its latency is counted from that due time, so a stall that
   delays later sends is charged to them, not hidden (no coordinated
   omission); how late the generator itself started each request is
   reported separately. Due times follow the reads rather than a wall
   clock so that the writes per read stay fixed however fast the shared
   host runs: a write evicts the plans the next reads need, and at a
   fixed rate per second a slow spell turned more of the reads into
   misses and slowed them twice. *)

type sample = {
  due : float;       (** when the request fell due *)
  started : float;   (** when the generator actually sent it *)
  finished : float;  (** when its answer arrived *)
  ok : bool;
}

let latency s = s.finished -. s.due
let lateness s = s.started -. s.due

type t = {
  every : int;
  mutable ticks : int;
  due : float Queue.t;
  mutable closed : bool;
  m : Mutex.t;
  c : Condition.t;
}

let create ~every =
  if every <= 0 then invalid_arg "Openloop.create: every must be positive";
  { every; ticks = 0; due = Queue.create (); closed = false; m = Mutex.create ();
    c = Condition.create () }

let with_lock t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

(* One read finished at [now]; every [every]-th makes a request due. *)
let tick t ~now =
  with_lock t (fun () ->
      t.ticks <- t.ticks + 1;
      if t.ticks mod t.every = 0 then begin
        Queue.push now t.due;
        Condition.signal t.c
      end)

(* No more reads: [run] returns once every request already due is sent. *)
let close t =
  with_lock t (fun () ->
      t.closed <- true;
      Condition.broadcast t.c)

(* Send each request in turn as it falls due, until [close]. *)
let run t ~now send =
  let next () =
    with_lock t (fun () ->
        while Queue.is_empty t.due && not t.closed do Condition.wait t.c t.m done;
        Queue.take_opt t.due)
  in
  let rec go i acc =
    match next () with
    | None -> List.rev acc
    | Some due ->
      let started = now () in
      let ok = send i in
      let finished = now () in
      go (i + 1) ({ due; started; finished; ok } :: acc)
  in
  go 0 []
