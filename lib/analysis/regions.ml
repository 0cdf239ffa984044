open Ido_ir

module PosSet = Set.Make (struct
  type t = Ir.pos

  let compare = Ir.compare_pos
end)

type cut = {
  pos : Ir.pos;
  id : int;
  live_in : Ir.reg list;
  out_regs : Ir.reg list;
  required : bool;
  at_release : bool;
}

type t = {
  cuts : cut list;
  n_war_pairs : int;
  n_mandatory : int;
  n_hitting : int;
}

let check_reducible cfg =
  let f = Cfg.func cfg in
  let rpo_index = Array.make (Array.length f.blocks) max_int in
  List.iteri (fun i b -> rpo_index.(b) <- i) (Cfg.reverse_postorder cfg);
  Array.iteri
    (fun src (blk : Ir.block) ->
      if Cfg.reachable cfg src then
        List.iter
          (fun dst ->
            if rpo_index.(dst) <= rpo_index.(src) && not (Cfg.dominates cfg dst src)
            then
              failwith
                (Printf.sprintf
                   "Regions: irreducible control flow in %s (edge %d -> %d)"
                   f.name src dst))
          (Ir.successors blk.term))
    f.blocks

(* Elidable cuts: after every acquire, at every release, around
   durable-region delimiters (Sec. III-B), and at in-FASE loop headers
   (bounding how much a dirty loop must re-execute).  The runtime may
   skip persisting these while the closed region is clean, so they must
   NOT be relied on to separate WAR pairs. *)
let elidable_cuts cfg fase f =
  let cuts = ref PosSet.empty in
  let releases = ref PosSet.empty in
  let add p = cuts := PosSet.add p !cuts in
  ignore
    (Ir.fold_instrs
       (fun () (pos : Ir.pos) instr ->
         match instr with
         | Ir.Lock _ when Fase.covers fase pos ->
             add { pos with idx = pos.idx + 1 }
         | Ir.Unlock _ when Fase.in_fase fase pos ->
             add pos;
             releases := PosSet.add pos !releases
         | Ir.Durable_begin -> add { pos with idx = pos.idx + 1 }
         | Ir.Durable_end -> add pos
         | _ -> ())
       () f);
  List.iter
    (fun hd ->
      let entry = { Ir.blk = hd; idx = 0 } in
      if Fase.in_fase fase entry then add entry)
    (Cfg.loop_headers cfg);
  (!cuts, !releases)

(* Required cuts: block-entry cuts for cross-block WAR pairs.  A cut at
   the store's block entry lies on every path from the load, forward or
   cyclic, since any path to the store enters its block.  Same-block
   pairs are handled by the interval cover below (whose cut also lies
   on every cyclic re-entry path, which traverses the block prefix).
   Required persists are never elided. *)
let required_cuts fase pairs =
  let cuts = ref PosSet.empty in
  let add p = cuts := PosSet.add p !cuts in
  List.iter
    (fun (p : Antidep.pair) ->
      if not p.same_block then begin
        let entry = { Ir.blk = p.store.blk; idx = 0 } in
        (* If the store's block entry is outside the FASE, the pair
           spans two FASEs and the intervening lock operations already
           separate it. *)
        if Fase.in_fase fase entry then add entry
      end)
    pairs;
  !cuts

(* Greedy interval point-cover over same-block WAR pairs: optimal for
   interval families (the paper's hitting-set step). *)
let hitting_set_cuts existing pairs =
  let by_block = Hashtbl.create 8 in
  List.iter
    (fun (p : Antidep.pair) ->
      if p.same_block then
        let lo = p.load.idx + 1 and hi = p.store.idx in
        let l = Option.value ~default:[] (Hashtbl.find_opt by_block p.load.blk) in
        Hashtbl.replace by_block p.load.blk ((lo, hi) :: l))
    pairs;
  let chosen = ref PosSet.empty in
  Hashtbl.iter
    (fun blk intervals ->
      let covered lo hi =
        let in_range (p : Ir.pos) = p.blk = blk && p.idx >= lo && p.idx <= hi in
        PosSet.exists in_range existing || PosSet.exists in_range !chosen
      in
      let sorted = List.sort (fun (_, h1) (_, h2) -> compare h1 h2) intervals in
      List.iter
        (fun (lo, hi) ->
          if not (covered lo hi) then
            chosen := PosSet.add { Ir.blk = blk; idx = hi } !chosen)
        sorted)
    by_block;
  !chosen

(* Registers defined on some path since the previous cut, intersected
   with liveness at this cut (Eq. 1 applied at the boundary). *)
let out_regs_at cfg cut_set (p : Ir.pos) =
  let f = Cfg.func cfg in
  let len b = Array.length f.blocks.(b).instrs in
  let visited = Hashtbl.create 64 in
  let visited_entry = Hashtbl.create 16 in
  let defs = ref Regset.empty in
  let rec visit_slot (s : Ir.pos) =
    if not (Hashtbl.mem visited s) then begin
      Hashtbl.replace visited s ();
      if s.idx < len s.blk then
        List.iter
          (fun d -> defs := Regset.add d !defs)
          (Ir.instr_defs f.blocks.(s.blk).instrs.(s.idx));
      if not (PosSet.mem s cut_set) then
        if s.idx > 0 then visit_slot { s with idx = s.idx - 1 }
        else enter_preds s.blk
    end
  and enter_preds b =
    if not (Hashtbl.mem visited_entry b) then begin
      Hashtbl.replace visited_entry b ();
      List.iter
        (fun pb ->
          let term_slot = { Ir.blk = pb; idx = len pb } in
          visit_slot term_slot)
        (Cfg.preds cfg b)
    end
  in
  if p.idx > 0 then visit_slot { p with idx = p.idx - 1 } else enter_preds p.blk;
  !defs

let compute cfg fase liveness alias =
  check_reducible cfg;
  let f = Cfg.func cfg in
  let pairs = Antidep.compute cfg fase alias in
  let locks, releases = elidable_cuts cfg fase f in
  let required = required_cuts fase pairs in
  (* The interval cover may only rely on cuts that always persist. *)
  let hitting = hitting_set_cuts required pairs in
  let required = PosSet.union required hitting in
  let all = PosSet.union locks required in
  let cuts =
    List.mapi
      (fun id pos ->
        let live = Liveness.live_at liveness pos in
        let defs = out_regs_at cfg all pos in
        {
          pos;
          id;
          live_in = Regset.elements live;
          out_regs = Regset.elements (Regset.inter defs live);
          required = PosSet.mem pos required;
          at_release = PosSet.mem pos releases;
        })
      (PosSet.elements all)
  in
  {
    cuts;
    n_war_pairs = List.length pairs;
    n_mandatory = PosSet.cardinal locks + PosSet.cardinal required - PosSet.cardinal hitting;
    n_hitting = PosSet.cardinal hitting;
  }

(* Oracle for tests: forward walk from each WAR load; if the matching
   store is reachable without crossing a cut, region formation failed. *)
let verify_no_war_within_regions cfg fase alias t =
  let f = Cfg.func cfg in
  (* Only cuts whose persist is unconditional can be trusted to
     separate a WAR pair. *)
  let cut_set =
    PosSet.of_list
      (List.filter_map (fun c -> if c.required then Some c.pos else None) t.cuts)
  in
  let len b = Array.length f.blocks.(b).instrs in
  let pairs = Antidep.compute cfg fase alias in
  let reach_without_cut (src : Ir.pos) (dst : Ir.pos) =
    let visited = Hashtbl.create 64 in
    let rec go (s : Ir.pos) =
      if s = dst then true
      else if Hashtbl.mem visited s then false
      else begin
        Hashtbl.replace visited s ();
        if s.idx < len s.blk then begin
          let nxt = { s with idx = s.idx + 1 } in
          if PosSet.mem nxt cut_set then false else go nxt
        end
        else
          List.exists
            (fun sb ->
              let entry = { Ir.blk = sb; idx = 0 } in
              if PosSet.mem entry cut_set then false else go entry)
            (Cfg.succs cfg s.blk)
      end
    in
    go src
  in
  List.for_all (fun (p : Antidep.pair) -> not (reach_without_cut p.load p.store)) pairs
