(** Cooperative query cancellation.

    A token is created per query by whoever owns its lifecycle (the
    network server's per-query timeout, a client CANCEL request, a CLI
    [--timeout]) and handed to the executor, which calls {!check} at
    every operator boundary as rows are pulled. Cancellation is
    cooperative: a fired token stops the query at the next boundary, so
    even a cross-product that would run for hours aborts within one
    pull. Tokens are domain-safe — a query running on a server dispatch
    thread observes a cancel fired from any other domain or thread. *)

type t

exception Canceled of string * string
(** [(code, message)]: [code] is a stable machine-readable tag — {!timeout}
    or {!canceled} — that the server maps onto typed wire errors. *)

val timeout_code : string   (** ["TIMEOUT"] — the deadline passed. *)

val canceled_code : string  (** ["CANCELED"] — explicitly canceled. *)

val create : ?deadline:float -> unit -> t
(** A fresh, unfired token. [deadline] is an absolute {!Obs.now_s}
    instant after which {!check} fires the token itself with
    {!timeout_code} — so a timed-out query aborts even when nobody is
    monitoring it from another thread. *)

val cancel : ?code:string -> t -> string -> unit
(** Fire the token with a message (default code {!canceled_code}).
    The first firing wins; later ones are ignored. Idempotent,
    domain-safe. *)

val deadline_passed : t -> bool
(** True when the token has a deadline and it is in the past (whether or
    not the token has fired yet). *)

val status : t -> (string * string) option
(** [Some (code, message)] once fired. *)

val check : t -> unit
(** @raise Canceled once the token has fired (or its deadline passed).
    Cheap enough to call per row: the deadline clock is consulted only
    every few dozen calls; the fired flag is a single atomic read. *)
