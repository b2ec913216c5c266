(** A fixed-size pool of OCaml 5 domains with a shared work queue.

    The Data Hounds parallel harvest fans its parse, validate and shred
    work out through it; queries never use it. A pool of size [n] runs
    at most [n] tasks at once: [n - 1] resident worker domains plus the
    caller, which "helps" by running queued tasks while it waits — so
    nested [parallel_map] calls from inside a task cannot deadlock.

    The [jobs] setting (CLI [--jobs N] / [XOMATIQ_JOBS]) governs a
    process-global pool, created lazily and resized on demand. Parallel
    code paths must degrade to plain sequential execution when
    [jobs () <= 1]; results must never depend on the setting. *)

type t
(** A pool of worker domains. *)

val parallel_map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Apply [f] to every element across the pool; results are returned in
    input order. The first exception (by input order) is re-raised.
    Sequential [List.map] when the pool size is 1. *)

(** {2 The process-global pool} *)

val jobs : unit -> int
(** The effective jobs setting (the global pool's size):
    [XOMATIQ_JOBS] when set to a positive integer, otherwise
    [Domain.recommended_domain_count ()], clamped to [\[1, 64\]], until
    {!set_jobs} overrides it. *)

val set_jobs : int -> unit
(** Resize the global pool (shutting down the old one, if any). Values
    are clamped to [\[1, 64\]]. *)

val get : unit -> t
(** The global pool, created lazily at the current jobs setting. *)

val with_jobs : int -> (unit -> 'a) -> 'a
(** Run a thunk with the global jobs setting temporarily overridden
    (restored on exit, even on exceptions). Used by tests and benches to
    pin a jobs level. *)
