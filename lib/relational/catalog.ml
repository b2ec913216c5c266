type t = {
  tables : (string, Table.t) Hashtbl.t;
  index_owner : (string, string) Hashtbl.t;  (* index name -> table name *)
  stats : (string, Stats.table_stats) Hashtbl.t;  (* table name -> ANALYZE snapshot *)
  epoch : int Atomic.t;
      (* schema/stats epoch, see the interface. Atomic: stress tests
         read it from several domains at once. *)
}

let normalize = String.lowercase_ascii

let create () =
  { tables = Hashtbl.create 16;
    index_owner = Hashtbl.create 16;
    stats = Hashtbl.create 16;
    epoch = Atomic.make 0 }

let epoch t = Atomic.get t.epoch
let bump_epoch t = Atomic.incr t.epoch

let find_stats t name = Hashtbl.find_opt t.stats (normalize name)

let set_stats t name st = Hashtbl.replace t.stats (normalize name) st

let find_table t name = Hashtbl.find_opt t.tables (normalize name)

let add_table t table =
  let name = normalize (Table.schema table).Schema.table_name in
  if Hashtbl.mem t.tables name then
    Error (Printf.sprintf "table %S already exists" name)
  else begin
    Hashtbl.add t.tables name table;
    (* register the implicit primary-key index if any *)
    List.iter
      (fun idx -> Hashtbl.replace t.index_owner (normalize (Index.name idx)) name)
      (Table.indexes table);
    Ok ()
  end

let drop_table t name =
  let name = normalize name in
  match Hashtbl.find_opt t.tables name with
  | None -> false
  | Some table ->
    List.iter
      (fun idx -> Hashtbl.remove t.index_owner (normalize (Index.name idx)))
      (Table.indexes table);
    Hashtbl.remove t.tables name;
    Hashtbl.remove t.stats name;
    true

let table_names t =
  Hashtbl.fold (fun name _ acc -> name :: acc) t.tables []
  |> List.sort String.compare

let add_index ?(attach = false) t ~table idx =
  let tname = normalize table in
  let iname = normalize (Index.name idx) in
  match Hashtbl.find_opt t.tables tname with
  | None -> Error (Printf.sprintf "no such table %S" tname)
  | Some tbl ->
    if Hashtbl.mem t.index_owner iname then
      Error (Printf.sprintf "index %S already exists" iname)
    else begin
      match
        (* attach: the index is already populated (paged index re-opened
           after a clean shutdown); skip the build scan *)
        if attach then Ok (Table.attach_index tbl idx)
        else Table.add_index tbl idx
      with
      | Error _ as e -> e
      | Ok () ->
        Hashtbl.add t.index_owner iname tname;
        Ok ()
    end

let drop_index t name =
  let iname = normalize name in
  match Hashtbl.find_opt t.index_owner iname with
  | None -> false
  | Some tname ->
    (match Hashtbl.find_opt t.tables tname with
     | None -> false
     | Some tbl ->
       let dropped =
         (* index names inside tables keep their original case *)
         match
           List.find_opt
             (fun i -> normalize (Index.name i) = iname)
             (Table.indexes tbl)
         with
         | Some i -> Table.drop_index tbl (Index.name i)
         | None -> false
       in
       if dropped then Hashtbl.remove t.index_owner iname;
       dropped)

let find_index t name =
  let iname = normalize name in
  match Hashtbl.find_opt t.index_owner iname with
  | None -> None
  | Some tname ->
    (match Hashtbl.find_opt t.tables tname with
     | None -> None
     | Some tbl ->
       (match
          List.find_opt (fun i -> normalize (Index.name i) = iname) (Table.indexes tbl)
        with
        | Some i -> Some (tbl, i)
        | None -> None))
