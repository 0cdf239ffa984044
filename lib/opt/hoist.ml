open Ido_ir
open Ido_analysis
open Ido_lint

(* O104: a grant hook that re-captures the same stable cell on every
   loop iteration can fire once, in the loop preheader, arming the
   runtime's grant slot that the first iteration's store consumes;
   later iterations store under the first capture (the O103 argument).

   The pass is deliberately stricter than {!Capflow.classify}'s
   hoisted-grant resolution: after the move, *every* path from the
   preheader's end must reach the candidate store — with no clearing
   instruction, no other store of any kind, no other grant hook, and
   no [Ret] en route — so the armed grant is always consumed, by
   exactly that store.  Contributes-nothing paths, which the linter
   tolerates, are rejected here: they would leave a grant armed across
   program points the VM's arming discipline does not cover.  In
   practice this restricts the rewrite to do-while-shaped loops. *)

(* Every path from block [b0] reaches [store] (skipping the hook being
   moved at [hook]) before any store, clearing instruction, grant
   hook, or return.  A revisited block means a cycle avoiding the
   store — reject. *)
let all_paths_consume (f : Ir.func) grant ~hook ~store b0 =
  let visited = Hashtbl.create 8 in
  let rec walk b =
    if Hashtbl.mem visited b then false
    else begin
      Hashtbl.replace visited b ();
      let blk = f.Ir.blocks.(b) in
      let n = Array.length blk.Ir.instrs in
      let rec go i =
        if i >= n then
          match blk.Ir.term with
          | Ir.Ret _ -> false
          | t -> List.for_all walk (Ir.successors t)
        else
          let pos = { Ir.blk = b; idx = i } in
          if pos = store then true
          else if pos = hook then go (i + 1)
          else
            match blk.Ir.instrs.(i) with
            | Ir.Store _ -> false
            | Ir.Hook h when h = grant -> false
            | ins when Capflow.clears ins -> false
            | _ -> go (i + 1)
      in
      go 0
    end
  in
  walk b0

let run scheme fname (f : Ir.func) =
  match Ido_runtime.Scheme.props scheme with
  | { grant = Some grant; grant_hoistable = true; _ } ->
      let f_ref = ref f and rewrites = ref [] in
      List.iter
        (fun (l : Analysis.loop) ->
          match l.Analysis.preheader with
          | None -> ()
          | Some pre ->
              (* block indices are stable across hoists (no blocks
                 added or removed), but instruction indices are not:
                 re-derive positions and addresses from the current
                 function *)
              let f = !f_ref in
              let alias = Alias.compute (Cfg.build f) in
              (* census of the loop body: clear-free, exactly one
                 grant hook, and it is adjacent to its store *)
              let grants = ref [] and clean = ref true in
              List.iter
                (fun b ->
                  let blk = f.Ir.blocks.(b) in
                  Array.iteri
                    (fun i ins ->
                      if Capflow.clears ins then clean := false
                      else
                        match ins with
                        | Ir.Hook h when h = grant ->
                            grants := { Ir.blk = b; idx = i } :: !grants
                        | _ -> ())
                    blk.Ir.instrs)
                l.Analysis.body;
              match (!clean, !grants) with
              | true, [ hook ] -> (
                  let blk = f.Ir.blocks.(hook.Ir.blk) in
                  let store = { hook with Ir.idx = hook.Ir.idx + 1 } in
                  let adjacent =
                    store.Ir.idx < Array.length blk.Ir.instrs
                    &&
                    match blk.Ir.instrs.(store.Ir.idx) with
                    | Ir.Store _ -> true
                    | _ -> false
                  in
                  if not adjacent then ()
                  else
                    match Alias.resolve_store_addr alias store with
                    | Some cell
                      when Alias.is_stable cell
                           && all_paths_consume f grant ~hook ~store
                                l.Analysis.header ->
                        f_ref :=
                          Analysis.append_at_end
                            (Analysis.delete f [ hook ])
                            pre
                            [ Ir.Hook grant ];
                        rewrites :=
                          Rewrite.vf ~code:"O104" ~func:fname ~pos:hook
                            "loop-invariant capture of %s hoisted to \
                             preheader block %d"
                            (Alias.to_string cell) pre
                          :: !rewrites
                    | _ -> ())
              | _ -> ())
        (Analysis.loops f);
      (!f_ref, List.rev !rewrites)
  | _ -> (f, [])
