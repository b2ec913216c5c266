exception Unsupported of string

let unsupported fmt = Printf.ksprintf (fun m -> raise (Unsupported m)) fmt

type translation = {
  sql : string;
  labels : string list;
  statically_empty : bool;
}

let sql_string s = Rdb.Value.to_literal (Rdb.Value.Text s)

let sql_number f =
  if Float.is_integer f && Float.abs f < 1e15 then string_of_int (int_of_float f)
  else Printf.sprintf "%.12g" f

(* ------------------------------------------------------------------ *)
(* Path splitting: structural steps + final-step predicates            *)
(* ------------------------------------------------------------------ *)

(* Returns (structural path with all predicates stripped, predicates of the
   final step). Predicates on earlier steps are unsupported. *)
let split_predicates (path : Gxml.Path.t) =
  let n = List.length path in
  let structural =
    List.map (fun (s : Gxml.Path.step) -> { s with Gxml.Path.predicates = [] }) path
  in
  let final_preds = ref [] in
  List.iteri
    (fun i (s : Gxml.Path.step) ->
      if s.predicates <> [] then begin
        if i < n - 1 then
          unsupported "predicates are only supported on the final path step (%s)"
            (Gxml.Path.to_string path);
        final_preds := s.predicates
      end)
    path;
  (structural, !final_preds)

(* ------------------------------------------------------------------ *)
(* Translation state                                                   *)
(* ------------------------------------------------------------------ *)

type contains_strategy =
  [ `Keyword_index  (* probe the xml_keyword inverted index (the design) *)
  | `Like_scan      (* LOWER(sval) LIKE '%kw%' over subtree value nodes
                       — the ablation: what contains() costs without the
                       keyword table *)
  ]

type state = {
  db : Rdb.Database.t;
  strategy : contains_strategy;
  mutable froms : string list;      (* reversed *)
  mutable conjuncts : string list;  (* reversed *)
  mutable counter : int;
  mutable empty : bool;
  bindings : (string * string) list;  (* FLWR var -> its node alias *)
}

let fresh st prefix =
  st.counter <- st.counter + 1;
  Printf.sprintf "%s%d" prefix st.counter

let add_from st clause = st.froms <- clause :: st.froms

let add_conj st c = st.conjuncts <- c :: st.conjuncts

(* ------------------------------------------------------------------ *)
(* Path-id cache                                                       *)
(* ------------------------------------------------------------------ *)

(* Every structural step in a translation re-resolves its path pattern
   with a full scan over [xml_path] ({!Datahounds.Shred.path_ids_matching}).
   The matching id set changes only when a commit changes [xml_path], and
   its meaning only when the schema does, so resolutions are memoized per
   (database, pattern) under the translation stamp. A stale entry simply
   fails the stamp guard and is recomputed and replaced in place, exactly
   like the engine's translated-plan cache. Process-global + mutex because
   the stress tests translate from several domains at once. *)

(* Everything a translation reads besides its own text: the schema/stats
   epoch and [xml_path]'s commit epoch. The schema epoch also covers a
   dropped and re-created [xml_path], whose commit epoch restarts at 0.
   Read it before the snapshot the cached value comes from (see
   {!Rdb.Catalog.epoch}). *)
let stamp db =
  let cat = Rdb.Database.catalog db in
  ( Rdb.Catalog.epoch cat,
    match Rdb.Catalog.find_table cat "xml_path" with
    | Some tbl -> Rdb.Table.commit_epoch tbl
    | None -> -1 )

let path_cache_lock = Mutex.create ()

(* (Database.id, rendered pattern) -> (stamp, path_ids) *)
let path_cache : (int * string, (int * int) * int list) Hashtbl.t =
  Hashtbl.create 64

let path_cache_hits = Rdb.Obs.Counter.create ()
let path_cache_misses = Rdb.Obs.Counter.create ()

let () =
  Rdb.Obs.register_counter "xq2sql.path_cache.hits" path_cache_hits;
  Rdb.Obs.register_counter "xq2sql.path_cache.misses" path_cache_misses

let path_locked f =
  Mutex.lock path_cache_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock path_cache_lock) f

let path_cache_stats () =
  path_locked (fun () ->
      ( Rdb.Obs.Counter.value path_cache_hits,
        Rdb.Obs.Counter.value path_cache_misses ))

let path_cache_clear () =
  path_locked (fun () ->
      Hashtbl.reset path_cache;
      Rdb.Obs.Counter.reset path_cache_hits;
      Rdb.Obs.Counter.reset path_cache_misses)

let path_ids_cached db (pattern : Gxml.Path.t) =
  let stamp = stamp db in
  let key = (Rdb.Database.id db, Gxml.Path.to_string pattern) in
  let cached =
    path_locked (fun () ->
        match Hashtbl.find_opt path_cache key with
        | Some (s, ids) when s = stamp ->
          Rdb.Obs.Counter.incr path_cache_hits;
          Some ids
        | _ ->
          Rdb.Obs.Counter.incr path_cache_misses;
          None)
  in
  match cached with
  | Some ids -> ids
  | None ->
    let ids = Datahounds.Shred.path_ids_matching db pattern in
    path_locked (fun () -> Hashtbl.replace path_cache key (stamp, ids));
    ids

let path_id_condition st alias (absolute_path : Gxml.Path.t) =
  match path_ids_cached st.db absolute_path with
  | [] ->
    st.empty <- true;
    "1 = 0"
  | [ id ] -> Printf.sprintf "%s.path_id = %d" alias id
  | ids ->
    Printf.sprintf "%s.path_id IN (%s)" alias
      (String.concat ", " (List.map string_of_int ids))

(* LIKE metacharacter escaping for the Like_scan ablation: the user's
   keyword is matched as a literal substring, so '%', '_' and the escape
   character itself must not act as wildcards. *)
let like_escape_char = '\\'

let escape_like_word w =
  let buf = Buffer.create (String.length w + 4) in
  String.iter
    (fun c ->
      (match c with
       | '%' | '_' | '\\' -> Buffer.add_char buf like_escape_char
       | _ -> ());
      Buffer.add_char buf c)
    w;
  Buffer.contents buf

(* The probe words for one contains() keyword. The keyword index stores
   Shred-tokenized words, so that strategy must probe with the same
   tokenizer. The LIKE ablation matches raw text: split on whitespace
   only, preserving punctuation (and in particular LIKE metacharacters,
   which are then escaped at probe time). *)
let probe_words st kw =
  match st.strategy with
  | `Keyword_index -> Datahounds.Shred.tokenize kw
  | `Like_scan ->
    let ws =
      String.split_on_char ' '
        (String.map
           (function '\t' | '\n' | '\r' -> ' ' | c -> c)
           (String.lowercase_ascii kw))
    in
    let ws = List.filter (fun w -> w <> "") ws in
    (* dedupe, preserving order *)
    List.rev
      (List.fold_left (fun acc w -> if List.mem w acc then acc else w :: acc) [] ws)

(* one keyword probe tied to [alias]'s subtree region (inclusive of the
   node itself); returns (froms, conds) *)
let keyword_probe st ~alias token =
  match st.strategy with
  | `Keyword_index ->
    let k = fresh st "k" in
    ( [ Printf.sprintf "xml_keyword %s" k ],
      [ Printf.sprintf "%s.doc_id = %s.doc_id" k alias;
        Printf.sprintf "%s.node_id >= %s.node_id" k alias;
        Printf.sprintf "%s.node_id <= %s.last_desc" k alias;
        Printf.sprintf "%s.word = %s" k (sql_string token) ] )
  | `Like_scan ->
    let k = fresh st "k" in
    ( [ Printf.sprintf "xml_node %s" k ],
      [ Printf.sprintf "%s.doc_id = %s.doc_id" k alias;
        Printf.sprintf "%s.node_id >= %s.node_id" k alias;
        Printf.sprintf "%s.node_id <= %s.last_desc" k alias;
        Printf.sprintf "%s.is_seq = 0" k;
        Printf.sprintf "LOWER(%s.sval) LIKE %s ESCAPE %s" k
          (sql_string ("%" ^ escape_like_word token ^ "%"))
          (sql_string (String.make 1 like_escape_char)) ] )

let binding_alias st var =
  match List.assoc_opt var st.bindings with
  | Some a -> a
  | None -> raise (Ast.Invalid_query ("unbound variable $" ^ var))

(* ------------------------------------------------------------------ *)
(* Value expressions                                                   *)
(* ------------------------------------------------------------------ *)

let cmp_sql = function
  | Ast.Eq -> "=" | Ast.Neq -> "<>" | Ast.Lt -> "<" | Ast.Le -> "<="
  | Ast.Gt -> ">" | Ast.Ge -> ">="

let literal_comparison alias op (lit : Ast.literal) =
  match lit with
  | Ast.Lit_number f -> Printf.sprintf "%s.nval %s %s" alias (cmp_sql op) (sql_number f)
  | Ast.Lit_string s -> Printf.sprintf "%s.sval %s %s" alias (cmp_sql op) (sql_string s)

let ast_cmp : Gxml.Path.cmp -> Ast.cmp = function
  | Gxml.Path.Eq -> Ast.Eq
  | Gxml.Path.Neq -> Ast.Neq
  | Gxml.Path.Lt -> Ast.Lt
  | Gxml.Path.Le -> Ast.Le
  | Gxml.Path.Gt -> Ast.Gt
  | Gxml.Path.Ge -> Ast.Ge

(* Emit the structural conditions tying [alias] (a fresh xml_node alias)
   to binding alias [b_alias] through [path] of binding [b_path]. The
   conjuncts are returned rather than registered so they can be used both
   in join position and inside EXISTS. *)
let region_conditions st ~alias ~b_alias ~binding_path ~path ~preds =
  let absolute = binding_path @ path in
  let conds =
    ref
      [ Printf.sprintf "%s.doc_id = %s.doc_id" alias b_alias;
        path_id_condition st alias absolute;
        Printf.sprintf "%s.node_id > %s.node_id" alias b_alias;
        Printf.sprintf "%s.node_id <= %s.last_desc" alias b_alias ]
  in
  let extra_froms = ref [] in
  List.iter
    (fun (pred : Gxml.Path.predicate) ->
      match pred with
      | Gxml.Path.Compare ([ { axis = Gxml.Path.Child;
                               test = Gxml.Path.Attribute a;
                               predicates = [] } ], op, lit) ->
        (* attribute comparison: child attr node of [alias] *)
        let q = fresh st "q" in
        extra_froms := Printf.sprintf "xml_node %s" q :: !extra_froms;
        conds :=
          (let cmp =
             match lit with
             | Gxml.Path.Lit_string s ->
               Printf.sprintf "%s.sval %s %s" q (cmp_sql (ast_cmp op)) (sql_string s)
             | Gxml.Path.Lit_number f ->
               Printf.sprintf "%s.nval %s %s" q (cmp_sql (ast_cmp op)) (sql_number f)
           in
           cmp)
          :: Printf.sprintf "%s.name = %s" q (sql_string a)
          :: Printf.sprintf "%s.kind = 'attr'" q
          :: Printf.sprintf "%s.parent_id = %s.node_id" q alias
          :: Printf.sprintf "%s.doc_id = %s.doc_id" q alias
          :: !conds
      | Gxml.Path.Compare ([], op, lit) ->
        (* self-value comparison: [. > 10] *)
        conds :=
          (match lit with
           | Gxml.Path.Lit_string s ->
             Printf.sprintf "%s.sval %s %s" alias (cmp_sql (ast_cmp op)) (sql_string s)
           | Gxml.Path.Lit_number f ->
             Printf.sprintf "%s.nval %s %s" alias (cmp_sql (ast_cmp op)) (sql_number f))
          :: !conds
      | Gxml.Path.Contains ([], kw) ->
        List.iter
          (fun token ->
            let fs, cs = keyword_probe st ~alias token in
            extra_froms := List.rev_append fs !extra_froms;
            conds := List.rev_append cs !conds)
          (probe_words st kw)
      | Gxml.Path.Exists [ { axis = Gxml.Path.Child;
                             test = Gxml.Path.Attribute a;
                             predicates = [] } ] ->
        let q = fresh st "q" in
        extra_froms := Printf.sprintf "xml_node %s" q :: !extra_froms;
        conds :=
          Printf.sprintf "%s.name = %s" q (sql_string a)
          :: Printf.sprintf "%s.kind = 'attr'" q
          :: Printf.sprintf "%s.parent_id = %s.node_id" q alias
          :: Printf.sprintf "%s.doc_id = %s.doc_id" q alias
          :: !conds
      | Gxml.Path.Position _ ->
        unsupported "positional predicates are not SQL-translatable"
      | Gxml.Path.Compare _ | Gxml.Path.Contains _ | Gxml.Path.Exists _ ->
        unsupported "this predicate form is not SQL-translatable: %s"
          (Gxml.Path.to_string path))
    preds;
  (List.rev !extra_froms, List.rev !conds)

(* Resolve a (var, path) pair to a node alias usable for values.
   In join mode the alias and its conditions go into the main FROM/WHERE;
   in nested mode they are returned for an EXISTS body. Returns
   (alias, extra froms, conditions). For the empty path the binding alias
   itself is returned with no conditions. *)
let resolve_var_path st ~binding_paths var (path : Gxml.Path.t) =
  let b_alias = binding_alias st var in
  if path = [] then (b_alias, [], [])
  else begin
    let structural, preds = split_predicates path in
    let alias = fresh st "v" in
    let binding_path = List.assoc var binding_paths in
    let b_structural, _ = split_predicates binding_path in
    let extra, conds =
      region_conditions st ~alias ~b_alias ~binding_path:b_structural
        ~path:structural ~preds
    in
    (alias, (Printf.sprintf "xml_node %s" alias :: extra), conds)
  end

(* ------------------------------------------------------------------ *)
(* Conditions                                                          *)
(* ------------------------------------------------------------------ *)

(* Join-style translation for positive conjuncts. *)
let rec translate_conjunct st ~binding_paths (c : Ast.condition) =
  match c with
  | Ast.And (a, b) ->
    translate_conjunct st ~binding_paths a;
    translate_conjunct st ~binding_paths b
  | (Ast.Compare _ | Ast.Contains _ | Ast.Order _) when not (has_negation c) ->
    let froms, conds = positive_condition st ~binding_paths c in
    List.iter (add_from st) froms;
    List.iter (add_conj st) conds
  | _ ->
    (* boolean structure: build a single conjunct from EXISTS pieces *)
    add_conj st (boolean_condition st ~binding_paths c)

and has_negation = function
  | Ast.Not _ -> true
  | Ast.Or _ -> false
  | Ast.And (a, b) -> has_negation a || has_negation b
  | Ast.Compare _ | Ast.Contains _ | Ast.Order _ -> false

(* Positive condition as (froms, conjuncts), suitable for either the main
   query or an EXISTS body. *)
and positive_condition st ~binding_paths (c : Ast.condition) =
  match c with
  | Ast.Compare (a, op, b) ->
    (match a, b with
     | Ast.Literal _, Ast.Literal _ ->
       raise (Ast.Invalid_query "comparison between two literals")
     | Ast.Var_path { var; path }, Ast.Literal lit ->
       let alias, froms, conds = resolve_var_path st ~binding_paths var path in
       (froms, conds @ [ literal_comparison alias op lit ])
     | Ast.Literal lit, Ast.Var_path { var; path } ->
       let flipped =
         match op with
         | Ast.Eq -> Ast.Eq | Ast.Neq -> Ast.Neq
         | Ast.Lt -> Ast.Gt | Ast.Le -> Ast.Ge
         | Ast.Gt -> Ast.Lt | Ast.Ge -> Ast.Le
       in
       let alias, froms, conds = resolve_var_path st ~binding_paths var path in
       (froms, conds @ [ literal_comparison alias flipped lit ])
     | Ast.Var_path vp1, Ast.Var_path vp2 ->
       let a1, f1, c1 = resolve_var_path st ~binding_paths vp1.var vp1.path in
       let a2, f2, c2 = resolve_var_path st ~binding_paths vp2.var vp2.path in
       let cmp =
         match op with
         | Ast.Eq | Ast.Neq ->
           Printf.sprintf "%s.sval %s %s.sval" a1 (cmp_sql op) a2
         | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
           Printf.sprintf "%s.nval %s %s.nval" a1 (cmp_sql op) a2
       in
       (f1 @ f2, c1 @ c2 @ [ cmp ]))
  | Ast.Contains { var; path; keyword } ->
    let tokens = probe_words st keyword in
    if tokens = [] then raise (Ast.Invalid_query "empty keyword in contains()");
    let alias, froms, conds = resolve_var_path st ~binding_paths var path in
    let kw_froms = ref [] and kw_conds = ref [] in
    List.iter
      (fun token ->
        let fs, cs = keyword_probe st ~alias token in
        kw_froms := List.rev_append fs !kw_froms;
        kw_conds := List.rev_append cs !kw_conds)
      tokens;
    (froms @ List.rev !kw_froms, conds @ List.rev !kw_conds)
  | Ast.Order { left = lv, lp; op; right = rv, rp } ->
    (* document-order comparison: possible precisely because node_id is
       the preorder rank (order stored as a data value, Section 2.2) *)
    let a1, f1, c1 = resolve_var_path st ~binding_paths lv lp in
    let a2, f2, c2 = resolve_var_path st ~binding_paths rv rp in
    let rel = match op with Ast.Before -> "<" | Ast.After -> ">" in
    ( f1 @ f2,
      c1 @ c2
      @ [ Printf.sprintf "%s.doc_id = %s.doc_id" a1 a2;
          Printf.sprintf "%s.kind = 'elem'" a1;
          Printf.sprintf "%s.kind = 'elem'" a2;
          Printf.sprintf "%s.node_id %s %s.node_id" a1 rel a2 ] )
  | Ast.And _ | Ast.Or _ | Ast.Not _ ->
    assert false (* callers decompose boolean structure first *)

(* Boolean (possibly negated) condition as a single SQL boolean
   expression built from EXISTS subqueries. *)
and boolean_condition st ~binding_paths (c : Ast.condition) : string =
  match c with
  | Ast.And (a, b) ->
    Printf.sprintf "(%s AND %s)"
      (boolean_condition st ~binding_paths a)
      (boolean_condition st ~binding_paths b)
  | Ast.Or (a, b) ->
    Printf.sprintf "(%s OR %s)"
      (boolean_condition st ~binding_paths a)
      (boolean_condition st ~binding_paths b)
  | Ast.Not a -> Printf.sprintf "(NOT %s)" (boolean_condition st ~binding_paths a)
  | Ast.Compare _ | Ast.Contains _ | Ast.Order _ ->
    let froms, conds = positive_condition st ~binding_paths c in
    (match froms with
     | [] ->
       (* no fresh aliases: a plain predicate on a binding alias *)
       (match conds with
        | [] -> "1 = 1"
        | _ -> "(" ^ String.concat " AND " conds ^ ")")
     | _ ->
       Printf.sprintf "EXISTS (SELECT 1 FROM %s WHERE %s)"
         (String.concat ", " froms) (String.concat " AND " conds))

(* ------------------------------------------------------------------ *)
(* Whole query                                                         *)
(* ------------------------------------------------------------------ *)

let default_label i (r : Ast.return_item) =
  match r.label with
  | Some l -> l
  | None ->
    let rec last_name = function
      | [] -> Printf.sprintf "col%d" (i + 1)
      | [ (s : Gxml.Path.step) ] ->
        (match s.test with
         | Gxml.Path.Name n -> n
         | Gxml.Path.Attribute a -> a
         | Gxml.Path.Any_element | Gxml.Path.Text_test ->
           Printf.sprintf "col%d" (i + 1))
      | _ :: rest -> last_name rest
    in
    last_name r.item_path

let translate ?(contains_strategy = `Keyword_index) db (q : Ast.t) =
  let q = Ast.check q in
  let st =
    { db; strategy = contains_strategy; froms = []; conjuncts = []; counter = 0;
      empty = false; bindings = [] }
  in
  (* FOR bindings *)
  let binding_paths =
    List.map (fun (b : Ast.for_binding) -> (b.var, b.path)) q.bindings
  in
  let st =
    List.fold_left
      (fun st (b : Ast.for_binding) ->
        let n = fresh st "n" in
        let d = fresh st "d" in
        add_from st (Printf.sprintf "xml_node %s" n);
        add_from st (Printf.sprintf "xml_doc %s" d);
        add_conj st (Printf.sprintf "%s.collection = %s" d (sql_string b.collection));
        add_conj st (Printf.sprintf "%s.doc_id = %s.doc_id" n d);
        (if b.path = [] then
           add_conj st (Printf.sprintf "%s.parent_id IS NULL" n)
         else begin
           let structural, preds = split_predicates b.path in
           if preds <> [] then
             unsupported "predicates on FOR binding paths are not supported";
           add_conj st (path_id_condition st n structural)
         end);
        { st with bindings = (b.var, n) :: st.bindings })
      st q.bindings
  in
  (* WHERE *)
  (match q.where with
   | Some c -> translate_conjunct st ~binding_paths c
   | None -> ());
  (* RETURN *)
  let selects =
    List.mapi
      (fun i (r : Ast.return_item) ->
        let alias, froms, conds =
          resolve_var_path st ~binding_paths r.item_var r.item_path
        in
        List.iter (add_from st) froms;
        List.iter (add_conj st) conds;
        add_conj st (Printf.sprintf "%s.sval IS NOT NULL" alias);
        Printf.sprintf "%s.sval AS %s" alias (default_label i r))
      q.return_items
  in
  let labels = List.mapi default_label q.return_items in
  let sql =
    Printf.sprintf "SELECT DISTINCT %s FROM %s WHERE %s"
      (String.concat ", " selects)
      (String.concat ", " (List.rev st.froms))
      (String.concat " AND " (List.rev st.conjuncts))
  in
  { sql; labels; statically_empty = st.empty }
