(* Inputs of every workload, all a pure function of the seed: the
   universe, the read streams, the harvest releases and the sync
   snapshot. *)

module Genbio = Workload.Genbio
module Query_mix = Workload.Query_mix
module Rng = Workload.Rng

(* Entries per source. *)
let scale = 500

let config ?(scale = scale) seed =
  { Genbio.default_config with
    seed; n_enzymes = scale; n_embl = scale; n_sprot = scale;
    n_citations = scale }

type item = { cls : string; text : string }

(* The paper's Figs. 8, 9 and 11, verbatim. *)
let fig8 =
  {|FOR $a IN document("hlx_embl.inv")/hlx_n_sequence,
    $b IN document("hlx_sprot.all")/hlx_n_sequence
WHERE contains($a, "cdc6", any) AND contains($b, "cdc6", any)
RETURN $b//sprot_accession_number, $a//embl_accession_number|}

let fig9 =
  {|FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a//catalytic_activity, "ketone")
RETURN $a//enzyme_id, $a//enzyme_description|}

let fig11 =
  {|FOR $a IN document("hlx_embl.inv")/hlx_n_sequence/db_entry,
    $b IN document("hlx_enzyme.DEFAULT")/hlx_enzyme/db_entry
WHERE $a//qualifier[@qualifier_type = "EC number"] = $b/enzyme_id
RETURN $Accession_Number = $a//embl_accession_number,
       $Accession_Description = $a//description|}

(* [n] items in rounds: each round holds every class once, in a fresh
   seeded order, so every prefix keeps the class mix to within one
   item per class. [next cls round] is the class's text for that
   round. *)
let rounds ~seed ~n (classes : string list) next =
  let rng = Rng.create seed in
  let rec go round acc left =
    if left <= 0 then List.rev acc
    else
      let order = Rng.shuffle rng classes in
      let take = min left (List.length order) in
      let acc =
        List.fold_left
          (fun acc cls -> { cls; text = next cls round } :: acc)
          acc (List.filteri (fun i _ -> i < take) order)
      in
      go (round + 1) acc (left - take)
  in
  go 0 [] n

(* The hot set: Figs. 8/9/11 plus one text of each Stevens task class.
   The task-class literals are drawn with a fixed seed, not the run's:
   one literal per class decides most of a hot run's cost (a keyword
   in 2% of entries against one in 15%), so drawing them per seed would
   make the seeds, not the program, set the spread. The data they run
   on still varies with the seed. *)
let hot_literal_seed = 1

let hot_set (u : Genbio.universe) =
  [ { cls = "fig8"; text = fig8 }; { cls = "fig9"; text = fig9 };
    { cls = "fig11"; text = fig11 } ]
  @ List.map
      (fun c ->
        { cls = Query_mix.class_name c;
          text =
            List.hd
              (Query_mix.generate ~seed:hot_literal_seed ~universe:u ~count:1 c) })
      Query_mix.all_classes

let hot_stream ~seed ~n hot =
  rounds ~seed ~n (List.map (fun i -> i.cls) hot) (fun cls _ ->
      (List.find (fun i -> i.cls = cls) hot).text)

(* Cold texts keep the task classes' shapes and draw every literal from
   the warehouse's own data, without replacement: a cold stream that
   wrapped around would turn hot. *)
let cold_pools ~seed (u : Genbio.universe) ~sprot_words =
  let rng = Rng.create (seed + 7) in
  let uniq xs = List.sort_uniq compare xs in
  let pool xs = Array.of_list (Rng.shuffle rng (uniq xs)) in
  let ecs = List.map (fun (e : Datahounds.Enzyme.t) -> e.ec_number) u.enzymes in
  let embl = u.embl_entries in
  let organisms = uniq (List.map (fun (e : Datahounds.Embl.t) -> e.organism) embl) in
  let qualifiers =
    List.concat_map
      (fun (e : Datahounds.Embl.t) ->
        List.concat_map
          (fun (f : Datahounds.Embl.feature) ->
            List.map
              (fun (q : Datahounds.Embl.qualifier) ->
                (q.qualifier_type, q.qualifier_value))
              f.qualifiers)
          e.features)
      embl
    @ List.map (fun ec -> ("EC number", ec)) ecs
  in
  [ ( "accession-lookup",
      pool
        (List.map
           (fun (e : Datahounds.Embl.t) ->
             Printf.sprintf
               {|FOR $a IN document("hlx_embl.inv")/hlx_n_sequence
WHERE $a//embl_accession_number = "%s"
RETURN $a//description|}
               e.accession)
           embl) );
    ( "keyword-browse",
      pool
        (List.map
           (Printf.sprintf
              {|FOR $a IN document("hlx_sprot.all")/hlx_n_sequence
WHERE contains($a, "%s", any)
RETURN $a//sprot_accession_number|})
           sprot_words) );
    ( "annotation-filter",
      pool
        (List.map
           (fun (ty, v) ->
             Printf.sprintf
               {|FOR $a IN document("hlx_embl.inv")/hlx_n_sequence
WHERE $a//qualifier[@qualifier_type = "%s"] = "%s"
RETURN $a//embl_accession_number, $a//organism|}
               ty v)
           qualifiers) );
    ( "range-scan",
      pool
        (List.concat_map
           (fun o ->
             List.init 100 (fun i ->
                 Printf.sprintf
                   {|FOR $a IN document("hlx_embl.inv")/hlx_n_sequence
WHERE $a//sequence_length >= %d AND $a//sequence_length < %d
AND $a//organism = "%s"
RETURN $a//embl_accession_number|}
                   (100 + i) (160 + i) o))
           organisms) );
    ( "xref-join",
      pool
        (List.map
           (Printf.sprintf
              {|FOR $a IN document("hlx_embl.inv")/hlx_n_sequence/db_entry,
    $b IN document("hlx_enzyme.DEFAULT")/hlx_enzyme/db_entry
WHERE $a//qualifier[@qualifier_type = "EC number"] = $b/enzyme_id
AND $b/enzyme_id = "%s"
RETURN $a//embl_accession_number, $b/enzyme_id|})
           ecs) );
    ( "literature-link",
      pool
        (List.map
           (Printf.sprintf
              {|FOR $c IN document("hlx_medline.all")/hlx_citation/db_entry,
    $e IN document("hlx_enzyme.DEFAULT")/hlx_enzyme/db_entry
WHERE $c//ec_reference = $e/enzyme_id
AND $e/enzyme_id = "%s"
RETURN $c/pmid, $c/title|})
           ecs) ) ]

(* [n] cold items; fails rather than repeat a text. *)
let cold_stream ~seed ~n pools =
  let per_class = (n + List.length pools - 1) / List.length pools in
  List.iter
    (fun (cls, p) ->
      if Array.length p < per_class then
        failwith
          (Printf.sprintf "cold class %s has %d distinct texts, needs %d" cls
             (Array.length p) per_class))
    pools;
  rounds ~seed ~n (List.map fst pools) (fun cls round ->
      (List.assoc cls pools).(round))

(* ---------------- harvest inputs ---------------- *)

let release_size = 10

let chunks k xs =
  let rec go acc cur n = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
      if n = k then go (List.rev cur :: acc) [ x ] 1 rest
      else go acc (x :: cur) (n + 1) rest
  in
  go [] [] 0 xs

(* The releases the harvester loads into a warehouse already holding
   ENZYME and EMBL: (source name, flat text) in load order. *)
let releases (u : Genbio.universe) =
  let each name render xs =
    List.map (fun c -> (name, render c)) (chunks release_size xs)
  in
  each "swissprot" Datahounds.Swissprot.render u.sprot_entries
  @ each "medline" Datahounds.Medline.render u.citations
  @ each "genbank"
      (fun es -> Datahounds.Genbank.render (List.map Datahounds.Genbank.of_embl es))
      u.embl_entries

type sync_expect = { added : int; updated : int; removed : int; unchanged : int }

(* A new ENZYME snapshot with a known diff against the warehoused one:
   exactly 10% of entries revised, 5% withdrawn and 5% new. The counts
   are fixed, not drawn, because each changed entry costs the sync far
   more than an unchanged one. *)
let enzyme_snapshot ~seed (u : Genbio.universe) =
  let n = List.length u.enzymes in
  let n_revised = n / 10 and n_removed = n / 20 and n_added = n / 20 in
  let more =
    Genbio.generate
      { (config ~scale:(n + n_added) seed) with n_embl = 0; n_sprot = 1; n_citations = 0 }
  in
  let added = List.filteri (fun i _ -> i >= n) more.enzymes in
  let order = Array.of_list (Rng.shuffle (Rng.create (seed + 5)) (List.init n Fun.id)) in
  let fate = Array.make n `Kept in
  Array.iteri
    (fun rank i ->
      if rank < n_revised then fate.(i) <- `Revised
      else if rank < n_revised + n_removed then fate.(i) <- `Removed)
    order;
  let kept =
    List.concat
      (List.mapi
         (fun i (e : Datahounds.Enzyme.t) ->
           match fate.(i) with
           | `Kept -> [ e ]
           | `Revised -> [ { e with description = e.description ^ " (revised)" } ]
           | `Removed -> [])
         u.enzymes)
  in
  ( kept @ added,
    { added = n_added; updated = n_revised; removed = n_removed;
      unchanged = n - n_revised - n_removed } )
