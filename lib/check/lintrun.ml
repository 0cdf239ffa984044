open Ido_runtime
open Ido_analysis
open Ido_workloads
open Ido_instrument
open Ido_lint

type pair = {
  scheme : Scheme.t;
  workload : string;
  diags : Diag.t list;
}

let lint_pair scheme workload =
  let p = Instrument.instrument scheme (Workload.named workload) in
  Lint.lint_program scheme p

let sweep ?pool ?chunk ?(schemes = Scheme.all) ?(workloads = Workload.names) ()
    =
  let pairs =
    List.concat_map
      (fun workload ->
        List.filter_map
          (fun scheme ->
            if Engine.supported scheme workload then Some (scheme, workload)
            else None)
          schemes)
      workloads
  in
  Ido_util.Pool.opt_map_list ?chunk pool
    (fun (scheme, workload) ->
      { scheme; workload; diags = lint_pair scheme workload })
    pairs

type outcome = {
  mutant : Mutate.t;
  mdiags : Diag.t list;
  caught : bool;
}

let run_mutant (m : Mutate.t) =
  let src = Workload.named m.workload in
  let p =
    match m.stage with
    | Mutate.Before_instrument ->
        Instrument.instrument m.scheme (m.transform src)
    | Mutate.After_instrument -> m.transform (Instrument.instrument m.scheme src)
  in
  let mdiags = Lint.lint_program ?variant:m.variant m.scheme p in
  let caught = List.exists (fun d -> d.Diag.code = m.expect) mdiags in
  { mutant = m; mdiags; caught }

let run_corpus ?pool ?chunk () =
  Ido_util.Pool.opt_map_list ?chunk pool run_mutant Mutate.corpus
