open Ido_util
open Ido_nvm
open Ido_runtime
open Ido_workloads

let scheme_label s = Scheme.name s

(* Split a flat cell list back into rows of [n] (the scheme count):
   sweeps evaluate their (x-point × scheme) grid as one flat list so a
   domain pool can run every cell concurrently, then reassemble. *)
let rec chunks n = function
  | [] -> []
  | xs ->
      let rec take k = function
        | x :: rest when k > 0 ->
            let taken, rest = take (k - 1) rest in
            (x :: taken, rest)
        | rest -> ([], rest)
      in
      let row, rest = take n xs in
      row :: chunks n rest

(* One throughput cell through the {!Exp.Spec} API.  [workload] is the
   registry name (or a label, when [?program] overrides with a
   custom-sized variant); [total_ops] is split among the workers as
   the historical interface did. *)
let mops_cell ?latency ?program ~workload ~scheme ~threads ~total_ops () =
  let spec =
    Exp.Spec.make ?latency ~scheme ~workload ~threads
      ~ops:(max 1 (total_ops / threads))
      ()
  in
  (Exp.measure ?program spec).Exp.prun.Exp.mops

let sweep ?pool ~x_label ~title ~schemes ~xs run =
  let cells =
    List.concat_map (fun x -> List.map (fun s -> (x, s)) schemes) xs
  in
  let vals = Pool.opt_map_list pool (fun (x, s) -> run s x) cells in
  let rows =
    List.map2
      (fun x row -> (string_of_int x, row))
      xs
      (chunks (List.length schemes) vals)
  in
  Render.series ~title ~x_label ~columns:(List.map scheme_label schemes) rows

(* ------------------------------------------------------------------ *)
(* Fig. 5: Memcached-like throughput vs thread count.  Expected shape:
   iDO >= 2x the other FASE schemes, 25-33% of Origin at peak,
   Mnemosyne above iDO (the coarse cache lock favours its speculation),
   nothing scaling much past 8 threads. *)

let fig5 ?pool scale =
  let schemes =
    Scheme.[ Origin; Ido; Mnemosyne; Atlas; Justdo; Nvthreads ]
  in
  let threads = Exp.thread_counts scale in
  let total_ops = Exp.app_total_ops scale in
  let panel workload name =
    sweep ?pool ~x_label:"threads"
      ~title:(Printf.sprintf "Fig 5 (%s): Memcached-like throughput (Mops/s)" name)
      ~schemes ~xs:threads
      (fun scheme n -> mops_cell ~workload ~scheme ~threads:n ~total_ops ())
  in
  panel "kvcache50" "insertion-intensive 50/50"
  ^ "\n"
  ^ panel "kvcache10" "search-intensive 10/90"

(* ------------------------------------------------------------------ *)
(* Fig. 6: Redis-like single-threaded throughput across database
   sizes.  Expected: iDO beats NVML/Atlas/JUSTDO at every size; iDO's
   gap to Origin shrinks as the database grows (read path is free);
   NVML above Atlas (Atlas's multithread machinery is pure overhead
   here). *)

let fig6_sizes = function
  | Exp.Quick ->
      [ ("10K", 10_000, 1_000); ("100K", 100_000, 5_000); ("1M", 1_000_000, 20_000) ]
  | Exp.Full ->
      [ ("10K", 10_000, 2_000); ("100K", 100_000, 20_000); ("1M", 1_000_000, 60_000) ]

let fig6 ?pool scale =
  let schemes = Scheme.[ Origin; Ido; Nvml; Atlas; Justdo ] in
  let total_ops = Exp.app_total_ops scale in
  let sizes = fig6_sizes scale in
  let cells =
    List.concat_map
      (fun (_, key_range, prefill) ->
        let program = Objstore.program ~key_range ~prefill () in
        List.map (fun scheme -> (program, scheme)) schemes)
      sizes
  in
  let vals =
    Pool.opt_map_list pool
      (fun (program, scheme) ->
        mops_cell ~program ~workload:"objstore" ~scheme ~threads:1 ~total_ops ())
      cells
  in
  let rows =
    List.map2
      (fun (label, _, _) row -> (label, row))
      sizes
      (chunks (List.length schemes) vals)
  in
  Render.series
    ~title:
      "Fig 6: Redis-like throughput (Mops/s), 80% get / 20% put,\n\
       power-law keys; rows are key ranges (prefilled with the hot set)"
    ~x_label:"keys" ~columns:(List.map scheme_label schemes) rows

(* ------------------------------------------------------------------ *)
(* Fig. 7: microbenchmark scalability.  Expected: iDO matches or beats
   the FASE schemes everywhere and scales near-linearly on the hash
   map; Mnemosyne wins at low thread counts on the ordered list with an
   iDO crossover at high counts; the stack serialises for everyone. *)

let fig7 ?pool scale =
  let schemes = Scheme.[ Ido; Atlas; Mnemosyne; Justdo ] in
  let threads = Exp.thread_counts scale in
  let total_ops = Exp.micro_total_ops scale in
  let panel name workload =
    sweep ?pool ~x_label:"threads"
      ~title:(Printf.sprintf "Fig 7 (%s): throughput (Mops/s)" name)
      ~schemes ~xs:threads
      (fun scheme n -> mops_cell ~workload ~scheme ~threads:n ~total_ops ())
  in
  String.concat "\n"
    [
      panel "stack" "stack";
      panel "queue" "queue";
      panel "ordered list" "olist";
      panel "hash map" "hmap";
    ]

(* ------------------------------------------------------------------ *)
(* Fig. 8: region characteristics under iDO.  Expected: micros mostly
   0-1 stores per region; the applications have a sizable multi-store
   fraction; >99% of regions have fewer than 5 live-in registers. *)

let fig8_benchmarks =
  [
    ("stack", Stack.program (), 4);
    ("queue", Queue.program (), 4);
    ("olist", Olist.program (), 4);
    ("hmap", Hmap.program (), 4);
    ("memcached", Kvcache.program ~insert_pct:50 (), 4);
    ("redis", Objstore.program ~key_range:10_000 ~prefill:1_000 (), 1);
  ]

let fig8 ?pool scale =
  let total_ops = Exp.micro_total_ops scale / 2 in
  let stats =
    Pool.opt_map_list pool
      (fun (name, program, threads) ->
        (name, Exp.region_stats ~threads ~total_ops program))
      fig8_benchmarks
  in
  let names = List.map fst stats in
  let stores = List.map (fun (_, (s, _)) -> Cdf.points s) stats in
  let regs = List.map (fun (_, (_, r)) -> Cdf.points r) stats in
  Render.cdf_panel
    ~title:"Fig 8 (top): cumulative % of dynamic regions with <= N stores"
    ~names stores
  ^ "\n"
  ^ Render.cdf_panel
      ~title:"Fig 8 (bottom): cumulative % of dynamic regions with <= N live-in registers"
      ~names regs

(* ------------------------------------------------------------------ *)
(* Table I: recovery time ratio Atlas/iDO at increasing kill times.
   Both recoveries are actually executed at a short simulated kill
   time (validating correctness and grounding the constants); the
   longer kill times extrapolate Atlas's measured log-growth rate,
   exactly the linear behaviour Sec. V-D reports.  Expected: ratios
   near or below 1 at 1 s, growing into the tens-hundreds by 50 s,
   largest for the ordered list and smallest for the hash map. *)

let table1 ?pool scale =
  let threads = match scale with Exp.Quick -> 8 | Exp.Full -> 32 in
  let window = Timebase.ms 3 in
  let kill_times = [ 1; 10; 20; 30; 40; 50 ] in
  let micros =
    [
      ("Stack", "stack");
      ("Queue", "queue");
      ("OrderedList", "olist");
      ("HashMap", "hmap");
    ]
  in
  let rows =
    Pool.opt_map_list pool
      (fun (name, workload) ->
        let spec scheme =
          Exp.Spec.make ~scheme ~workload ~threads ~ops:1_000_000 ()
        in
        let atlas = Exp.crash_check ~crash_at:window (spec Scheme.Atlas) in
        if not atlas.Exp.check_ok then
          failwith (name ^ ": Atlas recovery check failed");
        let ido = Exp.crash_check ~crash_at:window (spec Scheme.Ido) in
        if not ido.Exp.check_ok then
          failwith (name ^ ": iDO recovery check failed");
        let records_per_ns =
          float_of_int atlas.Exp.undo_records
          /. float_of_int (max 1 atlas.Exp.crashed_at)
        in
        let ido_ns = ido.Exp.recovery.Ido_vm.Recover.simulated_time in
        let ratio_at secs =
          let records = records_per_ns *. float_of_int (Timebase.s secs) in
          let atlas_ns =
            float_of_int Ido_vm.Recover.atlas_base_ns
            +. (records *. float_of_int Ido_vm.Recover.atlas_per_record_ns)
          in
          atlas_ns /. float_of_int ido_ns
        in
        (name, List.map ratio_at kill_times))
      micros
  in
  Render.series
    ~title:
      (Printf.sprintf
         "Table I: recovery time ratio (Atlas / iDO), %d threads;\n\
          grounded at a %.0f ms crash (recovery executed and verified),\n\
          extrapolated from the measured Atlas log-growth rate"
         threads (Timebase.to_ms window))
    ~x_label:"benchmark"
    ~columns:(List.map (fun k -> string_of_int k ^ "s") kill_times)
    rows

(* ------------------------------------------------------------------ *)
(* Fig. 9: sensitivity to NVM write latency.  Expected: iDO and Atlas
   hold their throughput to ~100 ns of extra latency and then degrade;
   JUSTDO loses 1.5-2x already at small delays (it fences at every
   store). *)

let fig9 ?pool scale =
  let schemes = Scheme.[ Ido; Atlas; Justdo ] in
  let delays = [ 20; 50; 100; 200; 500; 1000; 2000 ] in
  let threads = match scale with Exp.Quick -> 8 | Exp.Full -> 32 in
  let total_ops = Exp.app_total_ops scale in
  let panel name (workload, program) threads =
    let cells =
      List.concat_map (fun d -> List.map (fun s -> (d, s)) schemes) delays
    in
    let vals =
      Pool.opt_map_list pool
        (fun (d, scheme) ->
          let latency = Latency.with_nvm_extra Latency.default d in
          mops_cell ~latency ?program ~workload ~scheme ~threads ~total_ops ())
        cells
    in
    let rows =
      List.map2
        (fun d row -> (string_of_int d, row))
        delays
        (chunks (List.length schemes) vals)
    in
    Render.series
      ~title:(Printf.sprintf "Fig 9 (%s): throughput (Mops/s) vs extra NVM latency (ns)" name)
      ~x_label:"delay" ~columns:(List.map scheme_label schemes) rows
  in
  panel "Memcached-like, insertion-intensive" ("kvcache50", None) threads
  ^ "\n"
  ^ panel "Redis-like, large database"
      ("objstore", Some (Objstore.program ~key_range:100_000 ~prefill:5_000 ()))
      1

(* ------------------------------------------------------------------ *)
(* Ablations of iDO's design choices (DESIGN.md §4): boundary elision
   for clean regions, persist coalescing of register logs (Sec. IV-B),
   single-fence indirect locking (Sec. III-B) — plus both machine
   models: the volatile-cache baseline and the NV-cache machine JUSTDO
   assumed, on which the paper argues iDO still wins. *)

let ablation ?pool scale =
  let total_ops = Exp.micro_total_ops scale / 2 in
  let threads = 8 in
  let base = Ido_vm.Vm.config Scheme.Ido in
  let variants =
    [
      ("full iDO", base);
      ("no boundary elision", { base with Ido_vm.Vm.elide_clean_boundaries = false });
      ("no persist coalescing", { base with Ido_vm.Vm.coalesce_registers = false });
      ("two-fence locks", { base with Ido_vm.Vm.single_fence_locks = false });
      ( "everything off",
        {
          base with
          Ido_vm.Vm.elide_clean_boundaries = false;
          coalesce_registers = false;
          single_fence_locks = false;
        } );
    ]
  in
  let workloads =
    [
      ("stack", Stack.program ());
      ("olist", Olist.program ());
      ("hmap", Hmap.program ());
      ("memcached", Kvcache.program ~insert_pct:50 ());
    ]
  in
  let run_with cfg program =
    let m = Ido_vm.Vm.create cfg program in
    Ido_vm.Vm.run_init m;
    let t0 = Ido_vm.Vm.clock m in
    let per = max 1 (total_ops / threads) in
    for _ = 1 to threads do
      ignore (Ido_vm.Vm.spawn m ~fname:"worker" ~args:[ Int64.of_int per ])
    done;
    (match Ido_vm.Vm.run m with `Idle -> () | _ -> failwith "ablation run");
    float_of_int (Ido_vm.Vm.total_ops m)
    /. float_of_int (Ido_vm.Vm.clock m - t0)
    *. 1000.0
  in
  let cells =
    List.concat_map
      (fun (_, cfg) -> List.map (fun (_, program) -> (cfg, program)) workloads)
      variants
  in
  let vals =
    Pool.opt_map_list pool (fun (cfg, program) -> run_with cfg program) cells
  in
  let rows =
    List.map2
      (fun (vname, _) row -> (vname, row))
      variants
      (chunks (List.length workloads) vals)
  in
  let panel1 =
    Render.series
      ~title:
        (Printf.sprintf
           "Ablation: iDO design choices, %d threads (Mops/s; rows are variants)"
           threads)
      ~x_label:"variant" ~columns:(List.map fst workloads) rows
  in
  (* Machine model comparison on the hash map: every scheme, volatile
     vs nonvolatile caches. *)
  let schemes = Scheme.[ Ido; Atlas; Mnemosyne; Justdo ] in
  let machines =
    [
      ("volatile caches (ADR)", Latency.default);
      ("nonvolatile caches", Latency.nv_cache_machine);
    ]
  in
  let machine_cells =
    List.concat_map
      (fun (_, latency) -> List.map (fun s -> (latency, s)) schemes)
      machines
  in
  let machine_vals =
    Pool.opt_map_list pool
      (fun (latency, scheme) ->
        mops_cell ~latency ~workload:"hmap" ~scheme ~threads ~total_ops ())
      machine_cells
  in
  let machine_rows =
    List.map2
      (fun (mname, _) row -> (mname, row))
      machines
      (chunks (List.length schemes) machine_vals)
  in
  let panel2 =
    Render.series
      ~title:
        "Ablation: machine model (hash map, 8 threads; the NV-cache row is
         the hypothetical machine JUSTDO was designed for)"
      ~x_label:"machine"
      ~columns:(List.map scheme_label schemes)
      machine_rows
  in
  panel1 ^ "\n" ^ panel2

(* ------------------------------------------------------------------ *)

let table2 () =
  Render.table ~title:"Table II: Failure-Atomic Systems and their Properties"
    ~header:Scheme.table2_header
    (List.map (fun s -> (Scheme.props s).table2)
       Scheme.[ Ido; Atlas; Mnemosyne; Nvthreads; Justdo; Nvml ])

let all ?pool scale =
  [
    ("fig5", fig5 ?pool scale);
    ("fig6", fig6 ?pool scale);
    ("fig7", fig7 ?pool scale);
    ("fig8", fig8 ?pool scale);
    ("table1", table1 ?pool scale);
    ("fig9", fig9 ?pool scale);
    ("table2", table2 ());
    ("ablation", ablation ?pool scale);
  ]
