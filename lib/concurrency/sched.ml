(* Query scheduling: which thread a server request runs on.

   Every query runs one sequential plan; the only choice is whether it
   runs inline on the reactor thread or on a shepherd thread of its own.
   A cheap query runs inline, where it never pays a thread hand-off and
   the reactor's completion round trip. An expensive one is dispatched,
   so the reactor keeps reading the connection while it runs and a
   CANCEL frame or the wall-clock deadline can stop it mid-query.

   The lane depends on the root cost estimate alone, never on [--jobs]. *)

(* Cost is in the planner's unit ("rows touched"): a full scan of a few
   tens of thousands of rows, which runs for milliseconds. *)
let cost_threshold = 50_000.

type lane = Inline | Dispatch

let lane ~est_cost = if est_cost < cost_threshold then Inline else Dispatch

(* The EXPLAIN footer's rendering of the lane. *)
let lane_string = function
  | Inline -> "sched=seq workers=1 reason=cost"
  | Dispatch -> "sched=thread workers=1 reason=cost"
