(** Volcano-style plan execution.

    Plans are compiled by {!Planner}; this module evaluates them lazily as
    row sequences. Blocking operators (sort, aggregate, distinct, hash-join
    build side) materialise internally. *)

exception Runtime_error of string

val run :
  Catalog.t -> ?params:Value.t array -> ?obs:Obs.profile ->
  ?cancel:Cancel.t -> ?view:Table.snap -> Plan.t -> Value.t array Seq.t
(** Evaluate a plan. [params] fills [CParam] slots of correlated
    subplans (the top level normally passes none). [obs], built with
    {!Obs.create} from the same physical plan, charges each operator
    with rows, probes, hash-build sizes and wall time as the result is
    consumed. [cancel] is consulted at every operator boundary: once the
    token fires (timeout or explicit cancel) the next row pull raises
    {!Cancel.Canceled}. [view] pins every table access (scans and index
    probes) to one MVCC snapshot
    ({!Table.snap}); without it the executor reads the raw current
    state.
    @raise Runtime_error on evaluation failures (unknown table at run
    time, bad function arity, etc.).
    @raise Cancel.Canceled when [cancel] fires mid-execution. *)

val eval_expr :
  Catalog.t -> ?params:Value.t array -> Value.t array -> Plan.cexpr -> Value.t
(** Evaluate a compiled scalar expression against a row. *)

val like_match : ?escape:char -> pattern:string -> string -> bool
(** SQL LIKE with [%] and [_] wildcards (case-sensitive); [?escape]
    makes the following pattern character match itself literally. *)
