(** The XQ2SQL-transformer: rewriting XomatiQ FLWR queries into SQL over
    the generic relational schema (paper Section 3.2).

    Translation scheme (in the style of the paper's citations — Li & Moon
    region encoding, Shanmugasundaram et al. inlining):

    - each FOR binding [$a IN document("C")/p] becomes a node alias
      constrained to collection [C] and to the [path_id]s matching [p]
      (resolved against [xml_path] at translation time);
    - a path [$a//q] used in WHERE or RETURN becomes a fresh node alias
      tied to the binding by the region predicate
      [v.node_id > a.node_id AND v.node_id <= a.last_desc] and its own
      [path_id] set;
    - [contains(p, "kw", any)] probes the inverted keyword table once per
      token of [kw], restricted to the subtree region;
    - positive top-level conjuncts translate to joins; conditions under
      OR / NOT translate to (correlated) EXISTS subqueries so existential
      path semantics survive negation;
    - attribute predicates on the final step ([q[@t = "v"]]) become a
      child-attribute alias; deeper or positional predicates are rejected
      (the reference evaluator still supports them).

    The result is DISTINCT rows of string values, matching the reference
    evaluator's semantics exactly. *)

exception Unsupported of string
(** Raised for query forms outside the SQL-translatable subset
    (positional predicates, predicates on non-final steps). *)

type translation = {
  sql : string;
  labels : string list;       (** output column labels, one per RETURN item *)
  statically_empty : bool;    (** a path matched no [path_id]: result is empty *)
}

val default_label : int -> Ast.return_item -> string
(** The output column label for the [i]-th RETURN item: its explicit
    label, else the last path step's name, else ["col<i+1>"]. *)

type contains_strategy =
  [ `Keyword_index  (** probe the xml_keyword inverted index (the design) *)
  | `Like_scan      (** substring LIKE over subtree value nodes — the
                        ablation baseline without the keyword table *)
  ]

val translate :
  ?contains_strategy:contains_strategy -> Rdb.Database.t -> Ast.t -> translation
(** @raise Unsupported on untranslatable queries,
    @raise Ast.Invalid_query on invalid ones. *)

val stamp : Rdb.Database.t -> int * int
(** The translation stamp: {!Rdb.Catalog.epoch} paired with the
    {!Rdb.Table.commit_epoch} of [xml_path], the only table a
    translation reads. A translation (its SQL, its path ids, its plan)
    cached under a stamp stays valid while the stamp is unchanged. Read
    it before translating. *)

val path_cache_stats : unit -> int * int
(** [(hits, misses)] of the path-id resolution cache: path patterns are
    resolved against [xml_path] once per (database, {!stamp}, pattern)
    and memoized. A commit that adds paths, or DDL and ANALYZE,
    self-invalidates the entries; a document load that adds no new path
    keeps them. *)

val path_cache_clear : unit -> unit
(** Drop all memoized path resolutions and reset {!path_cache_stats}. *)
