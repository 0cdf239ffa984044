type result = {
  s_input : Input.t;
  s_outcome : Exec.outcome;
  s_runs : int;
}

(* Remove element [i] of a list. *)
let drop_nth i xs = List.filteri (fun j _ -> j <> i) xs

let tree_shrinks tr =
  let open Input in
  match tr with
  | Seq ops ->
      List.init (List.length ops) (fun i -> Seq (drop_nth i ops))
  | Unlocked ops ->
      List.init (List.length ops) (fun i -> Unlocked (drop_nth i ops))
  | If (a, b) ->
      [ Seq a; Seq b ]
      @ List.init (List.length a) (fun i -> If (drop_nth i a, b))
      @ List.init (List.length b) (fun i -> If (a, drop_nth i b))
  | Loop (n, ops) ->
      (if n > 1 then [ Loop (1, ops) ] else [])
      @ [ Seq ops ]
      @ List.init (List.length ops) (fun i -> Loop (n, drop_nth i ops))

let base_shrinks = function
  | Input.Workload _ -> []
  | Input.Random trees ->
      (* Drop a whole tree first (biggest size win), then simplify one
         tree in place. *)
      List.init (List.length trees) (fun i ->
          Input.Random (drop_nth i trees))
      @ List.concat
          (List.mapi
             (fun i tr ->
               List.map
                 (fun tr' ->
                   Input.Random
                     (List.mapi (fun j t -> if j = i then tr' else t) trees))
                 (tree_shrinks tr))
             trees)

let candidates (input : Input.t) =
  let open Input in
  let with_crashes cs = { input with crashes = cs } in
  let crash_cands =
    match input.crashes with
    | [] -> []
    | [ _ ] -> [ with_crashes [] ]
    | cs -> with_crashes [] :: List.map (fun c -> with_crashes [ c ]) cs
  in
  let edit_cands =
    List.init (List.length input.edits) (fun i ->
        { input with edits = drop_nth i input.edits })
  in
  let variant_cands =
    match input.variant with
    | Some _ -> [ { input with variant = None } ]
    | None -> []
  in
  let base_cands =
    List.map (fun b -> { input with base = b }) (base_shrinks input.base)
  in
  let sz = Input.size input in
  List.filter
    (fun c -> Input.size c < sz)
    (crash_cands @ edit_cands @ variant_cands @ base_cands)

let shrink ?(cache = Exec.cache ()) ?(budget = 400) ?(opt = false)
    (outcome : Exec.outcome) =
  (match outcome.Exec.o_failure with
  | None -> invalid_arg "Shrink.shrink: outcome is not a failure"
  | Some _ -> ());
  let code = Exec.primary_code outcome in
  let runs = ref 0 in
  let rec go (best : Exec.outcome) =
    let rec try_cands = function
      | [] -> best
      | c :: rest ->
          if !runs >= budget then best
          else begin
            incr runs;
            let o = Exec.run ~cache ~opt c in
            if o.Exec.o_failure <> None && Exec.primary_code o = code then
              go o
            else try_cands rest
          end
    in
    try_cands (candidates best.Exec.o_input)
  in
  let final = go outcome in
  { s_input = final.Exec.o_input; s_outcome = final; s_runs = !runs }
