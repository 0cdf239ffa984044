open Ido_ir
open Ido_analysis

module Emap = Map.Make (struct
  type t = Alias.expr

  let compare = Alias.compare
end)

let callees (f : Ir.func) =
  Ir.fold_instrs
    (fun acc _ i ->
      match i with Ir.Call { func; _ } -> func :: acc | _ -> acc)
    [] f

let reachable_set (p : Ir.program) entries =
  match entries with
  | [] -> None (* everything *)
  | _ ->
      let seen = Hashtbl.create 16 in
      let rec visit n =
        if not (Hashtbl.mem seen n) then begin
          Hashtbl.replace seen n ();
          match List.assoc_opt n p.Ir.funcs with
          | Some f -> List.iter visit (callees f)
          | None -> ()
        end
      in
      List.iter visit entries;
      Some seen

let inter_locks a b = List.filter (fun x -> List.exists (Alias.equal x) b) a

let check (p : Ir.program) ~entries ~results =
  let reach = reachable_set p entries in
  let included fn =
    match reach with None -> true | Some s -> Hashtbl.mem s fn
  in
  let accs =
    List.concat_map
      (fun (fn, (r : Transfer.result)) ->
        if included fn then
          List.map (fun a -> (fn, a)) r.Transfer.accesses
        else [])
      results
  in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  (* ---- L501: unprotected write racing protected accesses ---- *)
  let protected_locs =
    List.filter_map
      (fun ((_, a) : _ * Transfer.access) ->
        if a.Transfer.aprotected && Alias.is_stable a.Transfer.aloc then
          Some a.Transfer.aloc
        else None)
      accs
  in
  let reported = Hashtbl.create 16 in
  List.iter
    (fun ((fn, a) : string * Transfer.access) ->
      if
        a.Transfer.awrite
        && (not a.Transfer.aprotected)
        && Alias.is_stable a.Transfer.aloc
        && List.exists (Alias.equal a.Transfer.aloc) protected_locs
        && not (Hashtbl.mem reported (fn, Alias.to_string a.Transfer.aloc))
      then begin
        Hashtbl.replace reported (fn, Alias.to_string a.Transfer.aloc) ();
        add
          (Diag.v ~pos:a.Transfer.apos ~func:fn ~code:"L501"
             (Printf.sprintf
                "unprotected write to %s, which is accessed under \
                 lock/FASE protection elsewhere"
                (Alias.to_string a.Transfer.aloc)))
      end)
    accs;
  (* ---- L502: empty candidate lockset ---- *)
  let groups =
    List.fold_left
      (fun m ((fn, a) : string * Transfer.access) ->
        if a.Transfer.aprotected && Alias.is_stable a.Transfer.aloc then
          Emap.update a.Transfer.aloc
            (fun prev -> Some ((fn, a) :: Option.value prev ~default:[]))
            m
        else m)
      Emap.empty accs
  in
  Emap.iter
    (fun loc group ->
      let group = List.rev group in
      match group with
      | (_ :: _ :: _ as g)
        when List.exists (fun (_, a) -> a.Transfer.awrite) g
             && List.for_all (fun (_, a) -> a.Transfer.apure) g -> (
          let locksets = List.map (fun (_, a) -> a.Transfer.alocks) g in
          let common =
            match locksets with
            | first :: rest -> List.fold_left inter_locks first rest
            | [] -> []
          in
          if common = [] then
            match List.find_opt (fun (_, a) -> a.Transfer.awrite) g with
            | Some (fn, a) ->
                add
                  (Diag.v ~pos:a.Transfer.apos ~func:fn ~code:"L502"
                     (Printf.sprintf
                        "accesses to %s hold no common lock: its candidate \
                         lockset is empty (Eraser)"
                        (Alias.to_string loc)))
            | None -> ())
      | _ -> ())
    groups;
  (* ---- L503: lock-order cycle ---- *)
  let edges =
    List.concat_map
      (fun (fn, (r : Transfer.result)) ->
        if included fn then
          List.map (fun (h, t, pos) -> (fn, h, t, pos)) r.Transfer.order_edges
        else [])
      results
  in
  (* adjacency over stable lock tokens *)
  let adj =
    List.fold_left
      (fun m (_, h, t, _) ->
        Emap.update h
          (fun prev ->
            let l = Option.value prev ~default:[] in
            if List.exists (Alias.equal t) l then Some l else Some (t :: l))
          m)
      Emap.empty edges
  in
  let color = Hashtbl.create 16 in
  (* 0 absent, 1 on stack, 2 done; keys are printed tokens *)
  let key e = Alias.to_string e in
  let cycle_found = ref None in
  let rec dfs path e =
    match Hashtbl.find_opt color (key e) with
    | Some 1 ->
        if !cycle_found = None then begin
          (* [path] is the DFS stack, innermost first; the cycle is the
             segment from the revisited node [e] inward *)
          let rec upto acc = function
            | [] -> acc
            | x :: xs -> if Alias.equal x e then x :: acc else upto (x :: acc) xs
          in
          cycle_found := Some (upto [] path)
        end
    | Some _ -> ()
    | None ->
        Hashtbl.replace color (key e) 1;
        List.iter (dfs (e :: path)) (Option.value (Emap.find_opt e adj) ~default:[]);
        Hashtbl.replace color (key e) 2
  in
  Emap.iter (fun e _ -> if Hashtbl.find_opt color (key e) = None then dfs [] e) adj;
  (match !cycle_found with
  | None -> ()
  | Some [] -> ()
  | Some cyc ->
      let names = List.map Alias.to_string cyc @ [ Alias.to_string (List.hd cyc) ] in
      let first = List.hd cyc in
      (* anchor the report at an edge that closes the cycle *)
      let fn, pos =
        match
          List.find_opt (fun (_, _, t, _) -> Alias.equal t first) edges
        with
        | Some (fn, _, _, pos) -> (fn, Some pos)
        | None -> (fst (List.hd p.Ir.funcs), None)
      in
      add
        (Diag.v ?pos ~func:fn ~code:"L503"
           (Printf.sprintf
              "lock-order cycle: %s — two threads interleaving these \
               acquires deadlock inside their FASEs"
              (String.concat " -> " names))));
  List.rev !diags
