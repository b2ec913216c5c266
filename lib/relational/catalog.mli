(** System catalog: the registry of tables and indexes in a database.
    Identifiers are case-insensitive (folded to lowercase). *)

type t

val create : unit -> t

val add_table : t -> Table.t -> (unit, string) result
val drop_table : t -> string -> bool
val find_table : t -> string -> Table.t option
val table_names : t -> string list

val add_index : ?attach:bool -> t -> table:string -> Index.t -> (unit, string) result
(** Registers and builds the index on the owning table. With
    [~attach:true] the index is registered without the build scan (it is
    an already-populated paged index re-opened after a clean shutdown). *)

val drop_index : t -> string -> bool
val find_index : t -> string -> (Table.t * Index.t) option

val find_stats : t -> string -> Stats.table_stats option
val set_stats : t -> string -> Stats.table_stats -> unit
(** ANALYZE snapshots, keyed by table name; cleared by {!drop_table}. *)

val epoch : t -> int
val bump_epoch : t -> unit
(** Monotonic schema/stats epoch: everything a plan's shape and costs
    read besides the row data itself. {!Database} bumps it on DDL,
    CREATE/DROP INDEX and ANALYZE, and on a commit that moves a touched
    table's row count across a power of two (the planner costs live row
    counts, so a cached plan's costs are never off by more than 2x).
    Ordinary DML does not bump it: MVCC snapshots make results
    independent of the plan. Data a cache reads at translation time is
    stamped separately, per table, by {!Table.commit_epoch}.

    Ordering rule for caches keyed on these stamps: read every stamp
    {i before} taking the snapshot the cached value is computed from.
    Writers bump after the new commit is visible, so a stamp read first
    can only be older than the snapshot — the entry then misses on the
    next lookup and is recomputed — never newer than the data it
    stamps. *)

val normalize : string -> string
