(** The database facade: the SQL entry point the XQ2SQL transformer talks
    to, standing in for the commercial RDBMS (Oracle 9i) of the paper.

    Supports in-memory operation or WAL-backed durability with crash
    recovery, explicit transactions with rollback, DDL, DML, queries and
    EXPLAIN.

    Two row-storage backends share every code path above the table
    layer: the in-memory vector store, and an out-of-core paged store
    (heap files and on-disk B+trees read through a buffer pool, see
    {!Storage}). [XOMATIQ_STORAGE=disk] flips {!open_in_memory} and
    {!open_with_wal} onto the paged backend without touching call
    sites; {!open_disk} selects it explicitly. *)

type t

type result =
  | Rows of { columns : string list; rows : Value.t array list }
  | Affected of int
  | Explained of string
  | Done of string   (** DDL / transaction control acknowledgement *)

val open_in_memory : unit -> t
(** Volatile database. Under [XOMATIQ_STORAGE=disk] the rows still live
    in page files (in a private temp directory, deleted at close) so the
    whole testsuite exercises the paged backend. *)

val open_with_wal : string -> t
(** Open a database durably backed by the WAL at [path]. If the file
    exists, committed history is replayed (crash recovery). Under
    [XOMATIQ_STORAGE=disk] pages live beside the log in [path ^
    ".pages"]. *)

val open_disk : ?wal:string -> dir:string -> unit -> t
(** Open the paged backend at [dir] explicitly. With [wal]: if the
    directory's manifest proves a clean shutdown against the log, the
    existing page files are attached as-is (no replay); otherwise the
    pages are wiped and rebuilt from the committed WAL. Without [wal]
    there is no durability across a crash, only across {!close}. *)

val close : t -> unit
(** Aborts any open default-session transaction. Disk backend: runs a
    final {!checkpoint} and closes every page file; a database closed
    this way re-opens by attach, not replay. *)

val checkpoint : ?truncate_upto:int -> t -> unit
(** Disk backend: flush the WAL, write back every dirty page (fsync) and
    write the manifest blessing the page files. No-op in memory.
    [truncate_upto] additionally drops the WAL prefix below that logical
    record position (clamped to the manifest's position, which the pages
    just written fully cover) and deletes the bulk-load spool files only
    that prefix referenced. A primary passes the slowest connected
    replica's acknowledged position so no replica is ever cut off. Call
    at a statement boundary: truncating inside an open transaction would
    orphan its commit record. A database whose WAL lost a prefix
    re-opens by attaching the checkpointed pages and replaying only the
    surviving suffix (idempotently — records carry their rowids). *)

val storage : t -> Storage.t option
val is_disk : t -> bool
val data_dir : t -> string option

val catalog : t -> Catalog.t

val id : t -> int
(** Process-unique instance serial, assigned at open. Usable as a cheap
    hashtable key standing for the database's physical identity (caches
    keyed by [id] plus {!Catalog.epoch} and the {!Table.commit_epoch}s
    they read self-invalidate across DDL, ANALYZE and commits). *)

val exec : t -> string -> (result, string) Stdlib.result
(** Execute one SQL statement. *)

val exec_exn : t -> string -> result
(** @raise Failure with the error message. *)

val exec_stmt : t -> Sql_ast.stmt -> (result, string) Stdlib.result
(** {!exec} of an already-parsed statement, with the same error
    mapping. *)

val query : t -> string -> (string list * Value.t array list, string) Stdlib.result
(** Run a SELECT; returns (column names, rows). *)

val query_exn : t -> string -> string list * Value.t array list

val insert_rows :
  t -> table:string -> Value.t array list -> (int, string) Stdlib.result
(** Bulk insert of pre-built rows (the prepared-statement fast path used
    by the XML2Relational loader). Transactional and WAL-logged exactly
    like an INSERT statement; returns the number of rows inserted. *)

val bulk_load :
  t -> table:string -> spool:string -> rows:int -> (int, string) Stdlib.result
(** Spool-then-load: append the rows of a spool file (written with
    {!Storage.spool_create}/{!Storage.spool_add}) under a single WAL
    Load record — no per-row logging — then build each of the table's
    indexes in one pass (bottom-up from an externally sorted run when
    the index is an empty paged B+tree). Transactional: joins the open
    default-session transaction or auto-commits, and rolls back like
    any other statement. The resulting table and index state is
    identical to inserting the same rows one by one. The spool must
    outlive the WAL (recovery re-reads it). *)

val exec_script : t -> string -> (int, string) Stdlib.result
(** Run a [;]-separated script, stopping at the first error; returns the
    number of statements executed. *)

val explain : t -> string -> (string, string) Stdlib.result
(** Plan a SELECT and render the physical plan. *)

val explain_analyze : t -> string -> (string, string) Stdlib.result
(** Plan AND execute a SELECT, rendering the plan annotated with
    per-operator row counts, index probes, hash-build sizes and wall
    time, followed by a one-line total. Equivalent to
    [exec t ("EXPLAIN ANALYZE " ^ sql)]. *)

val in_transaction : t -> bool

type session
(** One client connection with its own transaction state, sharing the
    database's catalog, WAL and lock manager. The [t]-level API is the
    default session; extra sessions make concurrent schedules
    scriptable. Writers use strict two-phase locking (see
    {!Lock_manager}): DML takes an exclusive table lock released at
    COMMIT/ROLLBACK; a [Would_block] conflict fails only the statement
    (retryable); a [Deadlock] rolls the requesting transaction back.
    Reads take no locks at all — they run against an MVCC snapshot (see
    {!Table.snap}): a standalone SELECT reads the latest committed
    state at statement start; inside an explicit transaction the first
    read pins the snapshot for the transaction's lifetime (repeatable
    reads, own writes visible), and a later UPDATE/DELETE of a row some
    concurrent transaction committed over since that snapshot aborts
    with a serialization failure (first-updater-wins). *)

val session : t -> session
val session_exec : session -> string -> (result, string) Stdlib.result
val session_in_transaction : session -> bool

val plan_select : t -> Sql_ast.select -> Planner.planned
(** Plan without executing (used by tests and the XQ2SQL layer). *)

val run_planned :
  t -> ?obs:Obs.profile -> ?cancel:Cancel.t -> Planner.planned ->
  string list * Value.t array list
(** Execute a pre-planned SELECT; [obs] (built from the same plan)
    collects per-operator statistics during execution. [cancel] aborts
    execution cooperatively at the next operator boundary once fired
    (see {!Cancel}); the query server uses it for per-query wall-clock
    timeouts and client CANCEL requests. Runs against an MVCC snapshot
    of the latest committed state: never blocks on concurrent writers.
    @raise Cancel.Canceled when [cancel] fires mid-execution. *)

(** {2 Replication hooks}

    WAL shipping (see {!Replication}): the primary streams raw WAL
    lines; a replica appends them to its own log verbatim — its WAL is
    line-for-line the primary's, so logical record positions agree
    across nodes by construction — and applies committed transactions
    through the MVCC machinery, so replica reads stay
    snapshot-consistent while the stream applies. *)

val wal_position : t -> int
(** Logical WAL record position: records ever written, including a
    truncated prefix. 0 without a WAL. *)

val wal_base : t -> int
(** Records dropped from the front of the WAL by truncation. *)

val wal_file : t -> string option

val repl_append_lines : t -> string list -> unit
(** Replica side: append shipped raw WAL lines verbatim and flush.
    Append-before-apply — a crash between the two re-applies the records
    from the local log on restart (they are idempotent). *)

val repl_apply_txn : t -> Wal.op list -> unit
(** Replica side: apply one shipped committed transaction (its data
    operations in stream order; control records are ignored).
    Idempotent, like recovery replay. Commits through the same clock as
    a local transaction: the commit epoch of every table it changed
    moves (and the schema epoch, when a row count crosses a power of
    two), so caches over those tables re-validate.
    @raise Failure when the stream contradicts local state. *)

val repl_apply_ddl : t -> string -> unit
(** Replica side: apply one shipped DDL statement (without re-logging
    it). Bumps the schema epoch.
    @raise Failure on a malformed statement. *)
