open Ido_ir
open Ido_analysis
open Ido_lint

(* O103: under the undo/redo/page-log disciplines
   ({!Ido_runtime.Scheme.props} [grant_elidable]), the first capture of a cell in a
   protection window is the one recovery uses; re-capturing the same
   stable cell before the window closes appends a duplicate log record
   the runtime itself would skip or overwrite.  We delete the adjacent
   grant hook of any [hook; store] pair whose cell is must-captured on
   every path reaching the hook ({!Capflow}).

   Soundness of batching: the first capture of a cell on any path is
   never in its own captured-before set, so it is never deleted, and
   deleting a later duplicate leaves every must-captured set
   unchanged — one Capflow computation justifies all deletions. *)

let run scheme fname (f : Ir.func) =
  match Ido_runtime.Scheme.props scheme with
  | { grant = Some grant; grant_elidable = true; _ } ->
      let alias = Alias.compute (Cfg.build f) in
      let cap = Capflow.compute scheme alias f in
      let dead = ref [] in
      Array.iteri
        (fun b (blk : Ir.block) ->
          Array.iteri
            (fun i ins ->
              match ins with
              | Ir.Hook h when h = grant -> (
                  let n = Array.length blk.Ir.instrs in
                  let next_is_store =
                    i + 1 < n
                    &&
                    match blk.Ir.instrs.(i + 1) with
                    | Ir.Store _ -> true
                    | _ -> false
                  in
                  if next_is_store then
                    let hook_pos = { Ir.blk = b; idx = i } in
                    let store_pos = { Ir.blk = b; idx = i + 1 } in
                    match Alias.resolve_store_addr alias store_pos with
                    | Some cell
                      when Alias.is_stable cell
                           && Capflow.mem cap hook_pos cell ->
                        dead :=
                          ( hook_pos,
                            Rewrite.vf ~code:"O103" ~func:fname
                              ~pos:hook_pos
                              "duplicate capture of %s elided"
                              (Alias.to_string cell) )
                          :: !dead
                    | _ -> ())
              | _ -> ())
            blk.Ir.instrs)
        f.Ir.blocks;
      let dead = List.rev !dead in
      if dead = [] then (f, [])
      else
        ( Analysis.delete f (List.map fst dead),
          List.map snd dead )
  | _ -> (f, [])
