open Ido_ir
open Ido_lint
open Ido_runtime

(* O102: a FASE whose body can dirty nothing leaves recovery nothing
   to redo or undo — its entire hook skeleton (begin/end, boundaries,
   grants, commits) is pure overhead and the bare Lock/Unlock
   structure already carries the mutual-exclusion contract.  All or
   nothing: stripping only some hooks would break the structural
   contract Regioncheck enforces, so the pass fires only when every
   hook of the function can go.

   Transactions are excluded: their txn hooks *replaced* the lock
   instructions at instrumentation time, so even a write-free
   transaction needs Htxn_begin/Htxn_commit for mutual exclusion. *)

let run scheme fname (f : Ir.func) =
  if
    (Scheme.props scheme).fase = Scheme.Transaction
    || (not (Regioncheck.has_hooks f))
    || not (Dirtyflow.write_free scheme f)
  then (f, [])
  else begin
    let first = ref None and count = ref 0 in
    Ir.fold_instrs
      (fun () pos ins ->
        if Ir.is_hook ins then begin
          incr count;
          if !first = None then first := Some pos
        end)
      () f;
    let pos =
      match !first with Some p -> p | None -> { Ir.blk = 0; idx = 0 }
    in
    ( Regioncheck.strip f,
      [
        Rewrite.vf ~code:"O102" ~func:fname ~pos
          "write-free FASE: elided all %d hooks" !count;
      ] )
  end
