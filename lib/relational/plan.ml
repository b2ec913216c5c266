(* Physical query plans.

   The planner compiles every column reference to a positional slot in the
   operator's input row, so execution never resolves names. Subqueries are
   compiled to nested plans; correlated references become [CParam] slots
   filled from the outer row at evaluation time. *)

type cexpr =
  | CLit of Value.t
  | CCol of int
  | CParam of int             (* correlated outer-column parameter *)
  | CBinop of Sql_ast.binop * cexpr * cexpr
  | CUnop of Sql_ast.unop * cexpr
  | CFn of string * cexpr list
  | CLike of { subject : cexpr; pattern : cexpr; escape : cexpr option; negated : bool }
  | CIn_list of { subject : cexpr; candidates : cexpr list; negated : bool }
  | CIs_null of { subject : cexpr; negated : bool }
  | CBetween of { subject : cexpr; low : cexpr; high : cexpr; negated : bool }
  | CCase of { branches : (cexpr * cexpr) list; else_ : cexpr option }
  | CIn_plan of { subject : cexpr; plan : t; negated : bool }
  | CExists_plan of { plan : t; negated : bool }
  | CScalar_plan of t

and agg_spec = {
  agg_fn : Sql_ast.agg_fn;
  agg_arg : cexpr option;     (* None = COUNT star *)
  agg_distinct : bool;
}

and t =
  | Single_row   (* produces exactly one zero-column row: SELECT without FROM *)
  | Seq_scan of { table : string; filter : cexpr option }
  | Index_lookup of { table : string; index : string; key : cexpr array; filter : cexpr option }
  | Index_range of {
      table : string;
      index : string;
      lo : (cexpr array * bool) option;
      hi : (cexpr array * bool) option;
      filter : cexpr option;
    }
  | Filter of cexpr * t
  | Project of cexpr array * t
  | Nested_loop_join of { left : t; right : t; cond : cexpr option; left_outer : bool; right_arity : int }
  | Hash_join of {
      left : t;
      right : t;
      left_keys : cexpr array;   (* over the left row *)
      right_keys : cexpr array;  (* over the right row *)
      cond : cexpr option;       (* residual, over the concatenated row *)
      left_outer : bool;
      right_arity : int;
    }
  | Sort of (cexpr * Sql_ast.order_dir) array * t
  | Aggregate of { group_by : cexpr array; aggs : agg_spec array; input : t }
      (* output row = group key values followed by aggregate values *)
  | Distinct of t
  | Union_all of t list   (* bag concatenation; UNION = Distinct over it *)
  | Limit of { limit : int option; offset : int option; input : t }
  | Structural_join of {
      left : t;
      right : t;
      interval_on_left : bool;
          (* which input carries the [lo, hi] interval; the other input
             carries the point [pos] being tested for containment *)
      left_doc : cexpr;   (* document key, over the left row *)
      right_doc : cexpr;  (* document key, over the right row *)
      lo : cexpr;         (* interval bounds, over the interval side's row *)
      hi : cexpr;
      pos : cexpr;        (* position, over the point side's row *)
      lo_incl : bool;     (* pos >= lo vs pos > lo *)
      hi_incl : bool;     (* pos <= hi vs pos < hi *)
      cond : cexpr option;  (* residual, over the concatenated row *)
      right_arity : int;
    }
      (* interval containment (structural) merge join: equivalent to an
         inner join on [left_doc = right_doc AND lo (<|<=) pos (<|<=) hi]
         but executed with the stack-based algorithm — both inputs sorted
         on (doc, position), each consumed once, a stack of open ancestor
         intervals. Output is re-merged into the left-major order the
         equivalent nested-loop/hash plan would produce. *)

(* ------------------------------------------------------------------ *)
(* Rendering for EXPLAIN                                               *)
(* ------------------------------------------------------------------ *)

let rec cexpr_to_string = function
  | CLit v -> Value.to_literal v
  | CCol i -> Printf.sprintf "#%d" i
  | CParam i -> Printf.sprintf "$%d" i
  | CBinop (op, a, b) ->
    Printf.sprintf "(%s %s %s)" (cexpr_to_string a) (Sql_ast.binop_to_string op)
      (cexpr_to_string b)
  | CUnop (Sql_ast.Neg, e) -> Printf.sprintf "(-%s)" (cexpr_to_string e)
  | CUnop (Sql_ast.Not, e) -> Printf.sprintf "(NOT %s)" (cexpr_to_string e)
  | CFn (name, args) ->
    Printf.sprintf "%s(%s)" name (String.concat ", " (List.map cexpr_to_string args))
  | CLike { subject; pattern; escape; negated } ->
    let esc = match escape with
      | Some e -> " ESCAPE " ^ cexpr_to_string e
      | None -> ""
    in
    Printf.sprintf "(%s %sLIKE %s%s)" (cexpr_to_string subject)
      (if negated then "NOT " else "") (cexpr_to_string pattern) esc
  | CIn_list { subject; candidates; negated } ->
    Printf.sprintf "(%s %sIN (%s))" (cexpr_to_string subject)
      (if negated then "NOT " else "")
      (String.concat ", " (List.map cexpr_to_string candidates))
  | CIs_null { subject; negated } ->
    Printf.sprintf "(%s IS %sNULL)" (cexpr_to_string subject)
      (if negated then "NOT " else "")
  | CBetween { subject; low; high; negated } ->
    Printf.sprintf "(%s %sBETWEEN %s AND %s)" (cexpr_to_string subject)
      (if negated then "NOT " else "") (cexpr_to_string low) (cexpr_to_string high)
  | CCase _ -> "CASE ... END"
  | CIn_plan { subject; negated; _ } ->
    Printf.sprintf "(%s %sIN <subplan>)" (cexpr_to_string subject)
      (if negated then "NOT " else "")
  | CExists_plan { negated; _ } ->
    Printf.sprintf "(%sEXISTS <subplan>)" (if negated then "NOT " else "")
  | CScalar_plan _ -> "<scalar subplan>"

(* subplans referenced by an expression, for EXPLAIN rendering *)
let rec subplans_of (e : cexpr) : t list =
  match e with
  | CLit _ | CCol _ | CParam _ -> []
  | CBinop (_, a, b) -> subplans_of a @ subplans_of b
  | CUnop (_, a) -> subplans_of a
  | CFn (_, args) -> List.concat_map subplans_of args
  | CLike { subject; pattern; escape; _ } ->
    subplans_of subject @ subplans_of pattern
    @ (match escape with Some e -> subplans_of e | None -> [])
  | CIn_list { subject; candidates; _ } ->
    subplans_of subject @ List.concat_map subplans_of candidates
  | CIs_null { subject; _ } -> subplans_of subject
  | CBetween { subject; low; high; _ } ->
    subplans_of subject @ subplans_of low @ subplans_of high
  | CCase { branches; else_ } ->
    List.concat_map (fun (c, r) -> subplans_of c @ subplans_of r) branches
    @ (match else_ with Some e -> subplans_of e | None -> [])
  | CIn_plan { subject; plan; _ } -> subplans_of subject @ [ plan ]
  | CExists_plan { plan; _ } -> [ plan ]
  | CScalar_plan plan -> [ plan ]

(* Structure-preserving deep copies. Profiles and cost estimates key on
   physical node identity, so when a rewrite duplicates an expression
   that embeds a subplan, every copy must be a fresh allocation that
   profiles independently. *)
let rec copy_cexpr (e : cexpr) : cexpr =
  match e with
  | CLit v -> CLit v
  | CCol i -> CCol i
  | CParam i -> CParam i
  | CBinop (op, a, b) -> CBinop (op, copy_cexpr a, copy_cexpr b)
  | CUnop (op, a) -> CUnop (op, copy_cexpr a)
  | CFn (name, args) -> CFn (name, List.map copy_cexpr args)
  | CLike { subject; pattern; escape; negated } ->
    CLike
      { subject = copy_cexpr subject; pattern = copy_cexpr pattern;
        escape = Option.map copy_cexpr escape; negated }
  | CIn_list { subject; candidates; negated } ->
    CIn_list
      { subject = copy_cexpr subject;
        candidates = List.map copy_cexpr candidates; negated }
  | CIs_null { subject; negated } -> CIs_null { subject = copy_cexpr subject; negated }
  | CBetween { subject; low; high; negated } ->
    CBetween
      { subject = copy_cexpr subject; low = copy_cexpr low;
        high = copy_cexpr high; negated }
  | CCase { branches; else_ } ->
    CCase
      { branches = List.map (fun (c, r) -> (copy_cexpr c, copy_cexpr r)) branches;
        else_ = Option.map copy_cexpr else_ }
  | CIn_plan { subject; plan; negated } ->
    CIn_plan { subject = copy_cexpr subject; plan = copy_plan plan; negated }
  | CExists_plan { plan; negated } ->
    CExists_plan { plan = copy_plan plan; negated }
  | CScalar_plan plan -> CScalar_plan (copy_plan plan)

and copy_plan (p : t) : t =
  match p with
  | Single_row -> Single_row
  | Seq_scan { table; filter } ->
    Seq_scan { table; filter = Option.map copy_cexpr filter }
  | Index_lookup { table; index; key; filter } ->
    Index_lookup
      { table; index; key = Array.map copy_cexpr key;
        filter = Option.map copy_cexpr filter }
  | Index_range { table; index; lo; hi; filter } ->
    let bound = Option.map (fun (k, incl) -> (Array.map copy_cexpr k, incl)) in
    Index_range
      { table; index; lo = bound lo; hi = bound hi;
        filter = Option.map copy_cexpr filter }
  | Filter (f, input) -> Filter (copy_cexpr f, copy_plan input)
  | Project (es, input) -> Project (Array.map copy_cexpr es, copy_plan input)
  | Nested_loop_join { left; right; cond; left_outer; right_arity } ->
    Nested_loop_join
      { left = copy_plan left; right = copy_plan right;
        cond = Option.map copy_cexpr cond; left_outer; right_arity }
  | Hash_join { left; right; left_keys; right_keys; cond; left_outer; right_arity } ->
    Hash_join
      { left = copy_plan left; right = copy_plan right;
        left_keys = Array.map copy_cexpr left_keys;
        right_keys = Array.map copy_cexpr right_keys;
        cond = Option.map copy_cexpr cond; left_outer; right_arity }
  | Sort (keys, input) ->
    Sort (Array.map (fun (e, d) -> (copy_cexpr e, d)) keys, copy_plan input)
  | Aggregate { group_by; aggs; input } ->
    Aggregate
      { group_by = Array.map copy_cexpr group_by;
        aggs =
          Array.map
            (fun a -> { a with agg_arg = Option.map copy_cexpr a.agg_arg })
            aggs;
        input = copy_plan input }
  | Distinct input -> Distinct (copy_plan input)
  | Union_all inputs -> Union_all (List.map copy_plan inputs)
  | Limit { limit; offset; input } -> Limit { limit; offset; input = copy_plan input }
  | Structural_join
      { left; right; interval_on_left; left_doc; right_doc; lo; hi; pos;
        lo_incl; hi_incl; cond; right_arity } ->
    Structural_join
      { left = copy_plan left; right = copy_plan right; interval_on_left;
        left_doc = copy_cexpr left_doc; right_doc = copy_cexpr right_doc;
        lo = copy_cexpr lo; hi = copy_cexpr hi; pos = copy_cexpr pos;
        lo_incl; hi_incl; cond = Option.map copy_cexpr cond; right_arity }

(* Every plan node reachable from [plan], in preorder, each exactly once
   by physical identity: direct operator inputs plus the subplans embedded
   in operator expressions (filters, projections, join keys/conditions,
   sort keys, aggregate arguments). Used to build execution profiles. *)
let descendants plan =
  let acc = ref [] in
  let note p = acc := p :: !acc in
  let rec go p =
    note p;
    let expr e = List.iter go (subplans_of e) in
    let opt_expr = Option.iter expr in
    let exprs a = Array.iter expr a in
    let key_bound = function Some (k, _) -> exprs k | None -> () in
    match p with
    | Single_row -> ()
    | Seq_scan { filter; _ } -> opt_expr filter
    | Index_lookup { key; filter; _ } -> exprs key; opt_expr filter
    | Index_range { lo; hi; filter; _ } ->
      key_bound lo; key_bound hi; opt_expr filter
    | Filter (f, input) -> expr f; go input
    | Project (es, input) -> exprs es; go input
    | Nested_loop_join { left; right; cond; _ } ->
      opt_expr cond; go left; go right
    | Hash_join { left; right; left_keys; right_keys; cond; _ } ->
      exprs left_keys; exprs right_keys; opt_expr cond; go left; go right
    | Sort (keys, input) -> Array.iter (fun (e, _) -> expr e) keys; go input
    | Aggregate { group_by; aggs; input } ->
      exprs group_by;
      Array.iter (fun a -> opt_expr a.agg_arg) aggs;
      go input
    | Distinct input -> go input
    | Union_all inputs -> List.iter go inputs
    | Limit { input; _ } -> go input
    | Structural_join { left; right; left_doc; right_doc; lo; hi; pos; cond; _ } ->
      expr left_doc; expr right_doc; expr lo; expr hi; expr pos;
      opt_expr cond; go left; go right
  in
  go plan;
  List.rev !acc

(* The distinct index names a plan probes, in first-use order — the
   "chosen indexes" surfaced by pipeline traces. *)
let indexes_used plan =
  List.fold_left
    (fun acc p ->
      match p with
      | Index_lookup { index; _ } | Index_range { index; _ } ->
        if List.mem index acc then acc else acc @ [ index ]
      | _ -> acc)
    [] (descendants plan)

(* [annot] appends a per-operator suffix to each operator line (used by
   EXPLAIN ANALYZE to attach runtime statistics). *)
let to_string ?(annot = fun _ -> "") plan =
  let buf = Buffer.create 256 in
  let line indent s =
    Buffer.add_string buf (String.make (indent * 2) ' ');
    Buffer.add_string buf s;
    Buffer.add_char buf '\n'
  in
  let opt_filter = function
    | None -> ""
    | Some f -> Printf.sprintf " filter=%s" (cexpr_to_string f)
  in
  let rec go indent node =
    let op_line indent s = line indent (s ^ annot node) in
    match node with
    | Single_row -> op_line indent "SingleRow"
    | Seq_scan { table; filter } ->
      op_line indent (Printf.sprintf "SeqScan %s%s" table (opt_filter filter))
    | Index_lookup { table; index; key; filter } ->
      op_line indent
        (Printf.sprintf "IndexLookup %s using %s key=(%s)%s" table index
           (String.concat ", " (Array.to_list (Array.map cexpr_to_string key)))
           (opt_filter filter))
    | Index_range { table; index; lo; hi; filter } ->
      let bound name = function
        | None -> ""
        | Some (k, incl) ->
          Printf.sprintf " %s%s(%s)" name (if incl then "=" else "")
            (String.concat ", " (Array.to_list (Array.map cexpr_to_string k)))
      in
      op_line indent
        (Printf.sprintf "IndexRange %s using %s%s%s%s" table index
           (bound "lo" lo) (bound "hi" hi) (opt_filter filter))
    | Filter (f, input) ->
      op_line indent (Printf.sprintf "Filter %s" (cexpr_to_string f));
      List.iter
        (fun sub ->
          line (indent + 1) "SubPlan:";
          go (indent + 2) sub)
        (subplans_of f);
      go (indent + 1) input
    | Project (exprs, input) ->
      op_line indent
        (Printf.sprintf "Project [%s]"
           (String.concat ", " (Array.to_list (Array.map cexpr_to_string exprs))));
      go (indent + 1) input
    | Nested_loop_join { left; right; cond; left_outer; _ } ->
      op_line indent
        (Printf.sprintf "NestedLoopJoin%s%s"
           (if left_outer then " (left outer)" else "")
           (match cond with None -> "" | Some c -> " on " ^ cexpr_to_string c));
      go (indent + 1) left;
      go (indent + 1) right
    | Hash_join { left; right; left_keys; right_keys; cond; left_outer; _ } ->
      op_line indent
        (Printf.sprintf "HashJoin%s (%s) = (%s)%s"
           (if left_outer then " (left outer)" else "")
           (String.concat ", " (Array.to_list (Array.map cexpr_to_string left_keys)))
           (String.concat ", " (Array.to_list (Array.map cexpr_to_string right_keys)))
           (match cond with None -> "" | Some c -> " residual " ^ cexpr_to_string c));
      go (indent + 1) left;
      go (indent + 1) right
    | Sort (keys, input) ->
      let key (e, d) =
        cexpr_to_string e ^ (match d with Sql_ast.Asc -> " ASC" | Sql_ast.Desc -> " DESC")
      in
      op_line indent
        (Printf.sprintf "Sort [%s]"
           (String.concat ", " (Array.to_list (Array.map key keys))));
      go (indent + 1) input
    | Aggregate { group_by; aggs; input } ->
      let agg a =
        Printf.sprintf "%s(%s%s)"
          (Sql_ast.agg_fn_to_string a.agg_fn)
          (if a.agg_distinct then "DISTINCT " else "")
          (match a.agg_arg with None -> "*" | Some e -> cexpr_to_string e)
      in
      op_line indent
        (Printf.sprintf "Aggregate group=[%s] aggs=[%s]"
           (String.concat ", " (Array.to_list (Array.map cexpr_to_string group_by)))
           (String.concat ", " (Array.to_list (Array.map agg aggs))));
      go (indent + 1) input
    | Distinct input ->
      op_line indent "Distinct";
      go (indent + 1) input
    | Union_all inputs ->
      op_line indent "UnionAll";
      List.iter (go (indent + 1)) inputs
    | Limit { limit; offset; input } ->
      op_line indent
        (Printf.sprintf "Limit%s%s"
           (match limit with Some n -> Printf.sprintf " limit=%d" n | None -> "")
           (match offset with Some n -> Printf.sprintf " offset=%d" n | None -> ""));
      go (indent + 1) input
    | Structural_join
        { left; right; interval_on_left; left_doc; right_doc; lo; hi; pos;
          lo_incl; hi_incl; cond; _ } ->
      op_line indent
        (Printf.sprintf "StructuralJoin interval=%s doc (%s) = (%s) pos %s in %s%s, %s%s%s"
           (if interval_on_left then "left" else "right")
           (cexpr_to_string left_doc) (cexpr_to_string right_doc)
           (cexpr_to_string pos)
           (if lo_incl then "[" else "(")
           (cexpr_to_string lo) (cexpr_to_string hi)
           (if hi_incl then "]" else ")")
           (match cond with None -> "" | Some c -> " residual " ^ cexpr_to_string c));
      go (indent + 1) left;
      go (indent + 1) right
  in
  go 0 plan;
  Buffer.contents buf
