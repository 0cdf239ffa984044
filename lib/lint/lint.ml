open Ido_ir
open Ido_analysis

let lint_func ?variant scheme (f : Ir.func) =
  let r = Transfer.analyze ?variant scheme f in
  let conf = Regioncheck.check scheme f in
  (conf @ r.Transfer.diags, r)

let lint_program ?variant ?(entries = [ "worker" ]) scheme (p : Ir.program) =
  let per_func =
    List.map (fun (name, f) -> (name, lint_func ?variant scheme f)) p.Ir.funcs
  in
  let diags = List.concat_map (fun (_, (ds, _)) -> ds) per_func in
  let results = List.map (fun (name, (_, r)) -> (name, r)) per_func in
  let entries =
    List.filter (fun e -> List.mem_assoc e p.Ir.funcs) entries
  in
  let lockset = Lockset.check p ~entries ~results in
  List.sort_uniq Diag.compare (diags @ lockset)

let codes =
  [
    ("L101", "inconsistent lock depth at a control-flow join");
    ("L102", "unlock without a matching held lock");
    ("L103", "unbalanced transaction or durable region");
    ("L104", "return while locks, a transaction or a durable region is open");
    ("L105", "FASE entry/exit hook missing or misplaced");
    ("L106", "lock-record or commit hook missing or misplaced");
    ("L107", "lock-release hook disagrees with the FASE structure about \
              outermost-ness");
    ("L201", "persistent store inside a FASE without its scheme's log hook");
    ("L202", "orphaned log hook: the grant is not consumed by the next store");
    ("L203", "log hook outside its protected context");
    ("L204", "hook foreign to the scheme");
    ("L301", "write-ahead violation: a word is published before its \
              prerequisites are durable");
    ("L302", "FASE data not durable at a point the protocol requires it");
    ("L303", "lock released before the thread's runtime records are durable");
    ("L401", "region-plan cut without its boundary hook");
    ("L402", "required (WAR-separating) cut marked elidable");
    ("L403", "region boundary hook where the plan has no cut");
    ("L404", "region boundary metadata diverges from the plan");
    ("L501", "unprotected write to a location accessed under protection \
              elsewhere");
    ("L502", "empty candidate lockset for a shared persistent location");
    ("L503", "cycle in the static lock-order graph");
  ]
