open Ido_ir
open Ido_lint
open Ido_runtime

(* O101: a durable-commit hook (lock-release boundary persist under
   Atlas/NVML, page-log commit under NVThreads) whose tracked lines
   are provably clean on every incoming path ({!Dirtyflow}) flushes
   nothing, fences for nothing, and publishes no state recovery could
   use — the VM's own [elide_clean_boundaries] fast path skips it
   dynamically; here we delete it statically, with a justification.

   Batching from one dataflow computation is sound: where [dirty_at]
   is false the commit's clearing effect is the identity, so deleting
   it leaves every remaining fact valid. *)

let run scheme fname (f : Ir.func) =
  if (Scheme.props scheme).commit = Scheme.No_commit then (f, [])
  else begin
    let df = Dirtyflow.compute scheme f in
    let dead = ref [] in
    Array.iteri
      (fun b (blk : Ir.block) ->
        Array.iteri
          (fun i ins ->
            match ins with
            | Ir.Hook Ir.Hdurable_commit ->
                let pos = { Ir.blk = b; idx = i } in
                if not (Dirtyflow.dirty_at df pos) then
                  dead :=
                    ( pos,
                      Rewrite.v ~code:"O101" ~func:fname ~pos
                        "durable commit over provably-clean lines elided"
                    )
                    :: !dead
            | _ -> ())
          blk.Ir.instrs)
      f.Ir.blocks;
    let dead = List.rev !dead in
    if dead = [] then (f, [])
    else (Analysis.delete f (List.map fst dead), List.map snd dead)
  end
