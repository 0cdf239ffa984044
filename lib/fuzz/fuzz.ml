open Ido_runtime
module Engine = Ido_check.Engine
module Mutate = Ido_lint.Mutate
module Rng = Ido_util.Rng
module Pool = Ido_util.Pool
module Workload = Ido_workloads.Workload

type config = {
  seed : int;
  budget : int;
  schemes : Scheme.t list;
  workloads : string list;
  rediscover : bool;
  shrink_budget : int;
  opt : bool;
      (* fuzz the optimized pipeline: every candidate is additionally
         run through the persistence-redundancy optimizer (Ido_opt) *)
}

let failure_atomic s = (Scheme.props s).Scheme.failure_atomic

let default_config =
  {
    seed = 1;
    budget = 4000;
    schemes = List.filter failure_atomic Scheme.all;
    workloads = Workload.names;
    rediscover = false;
    shrink_budget = 200;
    opt = false;
  }

type finding = {
  fd_entry : Corpus.entry;
  fd_codes : string list;
  fd_organic : bool;
  fd_size : int * int;
  fd_runs : int;
}

type report = {
  r_config : config;
  r_executions : int;
  r_buckets : int;
  r_survivors : int;
  r_findings : finding list;
  r_corpus : Corpus.t;
  r_rediscovered : (string * bool) list;
}

(* ---------- candidate generation ---------- *)

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: rest -> x :: take (n - 1) rest

let drop_nth i xs = List.filteri (fun j _ -> j <> i) xs
let pickl rng l = List.nth l (Rng.int rng (List.length l))

(* Origin has no recovery: every injected crash would "fail" the
   oracle, drowning the report in non-findings.  Excluded always. *)
let pairs_of config =
  List.concat_map
    (fun workload ->
      List.filter_map
        (fun scheme ->
          if failure_atomic scheme && Engine.supported scheme workload
          then Some (scheme, workload)
          else None)
        config.schemes)
    config.workloads

(* The systematic single-edit bug space of one pair, in rediscovery
   priority order: protocol variants, the hoisted store, cut edits,
   then hook deletions/duplications interleaved by index (so early
   hooks — the common log/enter hooks — are probed from both
   directions first). *)
let pair_candidates (scheme, workload) =
  let mk ?edits ?variant () =
    Input.make ?edits ?variant ~scheme (Input.Workload workload)
  in
  let hooks, cuts =
    match Exec.instrumented (mk ()) with
    | p -> (min 64 (Mutate.hook_count p), min 16 (Mutate.cut_count p))
    | exception _ -> (0, 0)
  in
  List.map (fun f -> mk ~variant:f ()) Protocol.faults
  @ [ mk ~edits:[ Mutate.Hoist_store ] () ]
  @ List.concat
      (List.init cuts (fun k ->
           [ mk ~edits:[ Mutate.Elide_cut k ] ();
             mk ~edits:[ Mutate.Drop_cut k ] () ]))
  @ List.concat
      (List.init hooks (fun k ->
           [ mk ~edits:[ Mutate.Delete_hook k ] ();
             mk ~edits:[ Mutate.Dup_hook k ] () ]))

(* Round-robin across the pairs: candidate 0 of every pair, then
   candidate 1 of every pair, ... — a budgeted prefix visits every
   pair's high-priority edits before any pair's deep hook indices. *)
let round_robin lists =
  let arrs = List.map Array.of_list lists in
  let longest = List.fold_left (fun m a -> max m (Array.length a)) 0 arrs in
  let out = ref [] in
  for i = 0 to longest - 1 do
    List.iter (fun a -> if i < Array.length a then out := a.(i) :: !out) arrs
  done;
  List.rev !out

(* ---------- havoc mutations ---------- *)

let rng_op rng =
  match Rng.int rng 10 with
  | 0 | 1 | 2 -> Input.Load (Rng.int rng Input.cells)
  | 3 | 4 | 5 | 6 -> Input.Store (Rng.int rng Input.cells, Rng.int rng 50)
  | 7 | 8 -> Input.Addi (Rng.int rng 7)
  | _ -> Input.Mix

let rng_ops rng n = List.init (1 + Rng.int rng n) (fun _ -> rng_op rng)

(* Fresh genomes carry no [Unlocked] tree — they seed the {e clean}
   dynamic population; the lock-scope perturbation is a mutation. *)
let rng_tree rng =
  match Rng.int rng 7 with
  | 0 | 1 | 2 -> Input.Seq (rng_ops rng 6)
  | 3 | 4 -> Input.If (rng_ops rng 6, rng_ops rng 6)
  | _ -> Input.Loop (1 + Rng.int rng 4, rng_ops rng 6)

let fresh_genome rng config =
  let scheme = pickl rng (List.filter failure_atomic config.schemes) in
  Input.make ~scheme
    (Input.Random (List.init (1 + Rng.int rng 4) (fun _ -> rng_tree rng)))

let mutate_ops rng ops =
  let n = List.length ops in
  match Rng.int rng 3 with
  | 0 ->
      (* insert *)
      let ins = rng_op rng in
      let at = Rng.int rng (n + 1) in
      if at = n then ops @ [ ins ]
      else
        List.concat
          (List.mapi (fun i op -> if i = at then [ ins; op ] else [ op ]) ops)
  | 1 when n > 1 -> drop_nth (Rng.int rng n) ops
  | _ ->
      let repl = rng_op rng in
      let at = Rng.int rng (max 1 n) in
      List.mapi (fun i op -> if i = at then repl else op) ops

let mutate_tree rng tr =
  let open Input in
  match tr with
  | Seq ops -> Seq (mutate_ops rng ops)
  | Unlocked ops -> Unlocked (mutate_ops rng ops)
  | If (a, b) ->
      if Rng.bool rng then If (mutate_ops rng a, b)
      else If (a, mutate_ops rng b)
  | Loop (n, ops) ->
      if Rng.int rng 3 = 0 then Loop (1 + Rng.int rng 4, ops)
      else Loop (n, mutate_ops rng ops)

let mutate_genome rng trees =
  let n = List.length trees in
  match Rng.int rng 6 with
  | 0 when n < 5 ->
      (* splice in a fresh tree *)
      let at = Rng.int rng (n + 1) in
      take at trees @ [ rng_tree rng ] @ List.filteri (fun i _ -> i >= at) trees
  | 1 when n > 1 -> drop_nth (Rng.int rng n) trees
  | 2 ->
      (* lock-scope perturbation: push one tree's ops past the unlock *)
      let at = Rng.int rng n in
      List.mapi
        (fun i tr ->
          if i = at then
            match tr with
            | Input.Unlocked ops -> Input.Seq ops
            | tr -> Input.Unlocked (Input.tree_ops tr)
          else tr)
        trees
  | _ ->
      let at = Rng.int rng n in
      let tr' = mutate_tree rng (List.nth trees at) in
      List.mapi (fun i tr -> if i = at then tr' else tr) trees

type live = { li_input : Input.t; li_hints : int list; li_sched : int }

let rng_edit rng =
  match Rng.int rng 5 with
  | 0 -> Mutate.Delete_hook (Rng.int rng 24)
  | 1 -> Mutate.Dup_hook (Rng.int rng 24)
  | 2 -> Mutate.Elide_cut (Rng.int rng 8)
  | 3 -> Mutate.Drop_cut (Rng.int rng 8)
  | _ -> Mutate.Hoist_store

let mutate_one rng (li : live) =
  let input = li.li_input in
  let add_crash () =
    let c =
      if li.li_sched = 0 then Rng.int rng 64
      else
        match li.li_hints with
        | hints when hints <> [] && Rng.bool rng ->
            (* reseed near a boundary/FASE-transition event *)
            max 0 (pickl rng hints + Rng.int rng 3 - 1)
        | _ -> Rng.int rng (li.li_sched + 1)
    in
    { input with Input.crashes = take 4 (c :: input.Input.crashes) }
  in
  match Rng.int rng 8 with
  | 0 | 1 -> add_crash ()
  | 2 -> (
      match input.Input.crashes with
      | [] -> add_crash ()
      | cs ->
          { input with
            Input.crashes = drop_nth (Rng.int rng (List.length cs)) cs })
  | 3 ->
      { input with
        Input.edits = take 2 (rng_edit rng :: input.Input.edits) }
  | 4 ->
      { input with
        Input.variant = Some (pickl rng Protocol.faults) }
  | _ -> (
      match input.Input.base with
      | Input.Random trees ->
          { input with Input.base = Input.Random (mutate_genome rng trees) }
      | Input.Workload _ -> add_crash ())

(* ---------- the campaign ---------- *)

let base_key = function
  | Input.Workload w -> "workload:" ^ w
  | Input.Random _ -> "random"

let run ?pool ?(chunk = 0) config =
  Ido_harness.Spec.check_positive "budget" config.budget;
  if config.shrink_budget < 0 then
    invalid_arg
      (Printf.sprintf "shrink-budget must be >= 0 (got %d)"
         config.shrink_budget);
  if chunk < 0 then invalid_arg "Fuzz.run: chunk must be >= 0";
  let pairs = pairs_of config in
  (* A filter that leaves nothing to fuzz is a usage error, not an
     empty campaign. *)
  let schemes = String.concat "," (List.map Scheme.name config.schemes) in
  if not (List.exists failure_atomic config.schemes) then
    invalid_arg
      (Printf.sprintf
         "fuzz: no failure-atomic scheme in %s (origin has no recovery)"
         schemes);
  if config.rediscover && pairs = [] then
    invalid_arg
      (Printf.sprintf
         "fuzz --rediscover: no supported pair of schemes %s and workloads %s"
         schemes
         (String.concat "," config.workloads));
  let rng = Rng.create config.seed in
  let seen = Cov.create () in
  let entries = ref [] in
  let findings = ref [] in
  let finding_keys = Hashtbl.create 64 in
  let population = ref [] in
  let survivors = ref 0 in
  let executions = ref 0 in
  (* Candidate executions are the campaign's hot loop: batch them into
     chunked pool tasks (waves are up to 32 inputs, so auto-chunking
     still leaves every worker busy) and merge serially in submission
     order — the report and corpus stay byte-identical at every [-j]
     and chunk size. *)
  let cache = Exec.cache () in
  let eval_batch inputs =
    executions := !executions + List.length inputs;
    Pool.opt_map_list ~chunk pool (Exec.run ~cache ~opt:config.opt) inputs
  in
  let merge ~seed_stage outcomes =
    List.iter
      (fun (o : Exec.outcome) ->
        let input = o.Exec.o_input in
        let novel = Cov.novel seen o.Exec.o_features in
        Cov.add seen o.Exec.o_features;
        match o.Exec.o_failure with
        | Some f ->
            let key =
              ( Scheme.name input.Input.scheme,
                base_key input.Input.base,
                f.Exec.f_codes )
            in
            if not (Hashtbl.mem finding_keys key) then begin
              Hashtbl.replace finding_keys key ();
              let s =
                Shrink.shrink ~cache ~budget:config.shrink_budget
                  ~opt:config.opt o
              in
              let entry =
                Corpus.entry_of_outcome Corpus.Finding s.Shrink.s_outcome
              in
              entries := entry :: !entries;
              findings :=
                {
                  fd_entry = entry;
                  fd_codes = f.Exec.f_codes;
                  fd_organic = not (Input.static_only input);
                  fd_size = (Input.size input, Input.size s.Shrink.s_input);
                  fd_runs = s.Shrink.s_runs;
                }
                :: !findings
            end
        | None ->
            let keep = seed_stage || novel > 0 in
            if keep then begin
              entries :=
                Corpus.entry_of_outcome
                  (if seed_stage then Corpus.Seed else Corpus.Survivor)
                  o
                :: !entries;
              if not seed_stage then incr survivors;
              population :=
                {
                  li_input = input;
                  li_hints = o.Exec.o_hints;
                  li_sched = o.Exec.o_schedule;
                }
                :: !population
            end)
      outcomes
  in
  (* Stage 0: clean seeds — every pair crash-free, plus (outside
     rediscovery) a few random genomes. *)
  let seeds =
    List.map (fun (s, w) -> Input.make ~scheme:s (Input.Workload w)) pairs
    @
    if config.rediscover then []
    else List.init 6 (fun _ -> fresh_genome rng config)
  in
  merge ~seed_stage:true (eval_batch (take config.budget seeds));
  (* Stage 1: crash seeds — two crash points per dynamic seed, one near
     a boundary hint, one uniform. *)
  let crash_seeds =
    List.filter_map
      (fun li ->
        if li.li_sched = 0 then None
        else
          let near =
            match li.li_hints with
            | [] -> Rng.int rng (li.li_sched + 1)
            | hs -> max 0 (pickl rng hs + Rng.int rng 3 - 1)
          in
          let uniform = Rng.int rng (li.li_sched + 1) in
          Some { li.li_input with Input.crashes = [ near; uniform ] })
      (List.rev !population)
  in
  let remaining = config.budget - !executions in
  if remaining > 0 then
    merge ~seed_stage:false (eval_batch (take remaining crash_seeds));
  (* Stage 2: deterministic single-edit enumeration. *)
  let det = round_robin (List.map pair_candidates pairs) in
  let remaining = config.budget - !executions in
  if remaining > 0 then merge ~seed_stage:false (eval_batch (take remaining det));
  (* Stage 3: havoc until the budget runs out. *)
  while !executions < config.budget && !population <> [] do
    let wave = min 32 (config.budget - !executions) in
    let pop = !population in
    let cands =
      List.init wave (fun _ ->
          if (not config.rediscover) && Rng.chance rng 0.1 then
            fresh_genome rng config
          else mutate_one rng (pickl rng pop))
    in
    merge ~seed_stage:false (eval_batch cands)
  done;
  let findings = List.rev !findings in
  let r_rediscovered =
    if not config.rediscover then []
    else
      List.map
        (fun (m : Mutate.t) ->
          ( m.Mutate.name,
            List.exists
              (fun fd ->
                let i = fd.fd_entry.Corpus.e_input in
                i.Input.scheme = m.Mutate.scheme
                && i.Input.base = Input.Workload m.Mutate.workload
                && List.mem m.Mutate.expect fd.fd_codes)
              findings ))
        Mutate.corpus
  in
  {
    r_config = config;
    r_executions = !executions;
    r_buckets = Cov.buckets seen;
    r_survivors = !survivors;
    r_findings = findings;
    r_corpus =
      {
        Corpus.c_seed = config.seed;
        c_opt = config.opt;
        c_entries = List.rev !entries;
      };
    r_rediscovered;
  }

let organic r = List.filter (fun fd -> fd.fd_organic) r.r_findings

let found_count r =
  ( List.length (List.filter snd r.r_rediscovered),
    List.length r.r_rediscovered )

let render r =
  let b = Buffer.create 2048 in
  let addf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  addf "fuzz: seed=%d budget=%d rediscover=%b\n" r.r_config.seed
    r.r_config.budget r.r_config.rediscover;
  addf "executions=%d coverage-buckets=%d survivors=%d findings=%d\n"
    r.r_executions r.r_buckets r.r_survivors
    (List.length r.r_findings);
  List.iter
    (fun fd ->
      let e = fd.fd_entry in
      let before, after = fd.fd_size in
      addf "finding: %s codes=%s %s size=%d->%d shrink-runs=%d\n"
        (Input.label e.Corpus.e_input)
        (String.concat "," fd.fd_codes)
        (if fd.fd_organic then "ORGANIC" else "induced")
        before after fd.fd_runs;
      addf "  repro: %s\n"
        (match e.Corpus.e_codes with
        | [] -> "(no longer fails after shrink cap)"
        | cs ->
            Printf.sprintf "%s => %s" (Input.label e.Corpus.e_input)
              (String.concat "," cs));
      if e.Corpus.e_detail <> "" then addf "  detail: %s\n" e.Corpus.e_detail)
    r.r_findings;
  if r.r_rediscovered <> [] then begin
    let found, total = found_count r in
    addf "rediscovered %d/%d seeded mutants\n" found total;
    List.iter
      (fun (name, ok) -> if not ok then addf "  missing: %s\n" name)
      r.r_rediscovered
  end;
  Buffer.contents b
