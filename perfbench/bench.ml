(* The repository benchmark: five workloads, each measured on both
   clocks (simulated ns and host seconds).

     bench.exe --workload W [--seed N] [--seconds S] [--trace 0|1]
               [--size full|toy]

   A plain run ([--trace 0]) repeats passes over the workload's fixed,
   seed-derived work list for [--seconds], checks every output, and
   prints the end-to-end metrics as medians over the passes.  A traced
   run ([--trace 1]) rebuilds the workload from each layer's public
   calls under host-time spans, cross-checks the rebuild against the
   entry points, and prints the per-layer metrics; the spans are also
   written as Chrome trace-event JSON to _build/perfbench-out/.  Either way
   the last line of standard output is one JSON object with [correct],
   [attempted], [failed] and [metrics].  Exit status: 0 when every
   check passed, 1 when one failed, 2 on a usage error. *)

open Common

let workloads =
  [ "sim-closed"; "crash-matrix"; "serve-steady"; "serve-storm"; "fuzz-campaign" ]

let end_to_end =
  [ ("setup_s", "s"); ("units_per_s", "1/s"); ("peak_rss_mb", "MB"); ("ido_sim_ns", "ns") ]

(* Span families: the layer boundaries the traced rebuilds time. *)
let families =
  [
    "workloads.build"; "instrument"; "lint"; "vm.create"; "vm.reset"; "vm.init";
    "vm.run"; "recover"; "oracle"; "check.record"; "check.inject";
    "exp.crash_check"; "serve.gen.plan"; "serve.gen.drain"; "serve.shard";
    "serve.lat.merge"; "serve.report"; "fuzz.exec";
  ]

let per_layer =
  List.concat_map
    (fun f -> [ (f ^ ".calls", "count"); (f ^ ".self_frac", "fraction") ])
    families
  @ [
      ("workloads.build_s", "s");
      ("instrument.self_s", "s");
      ("vm.sim_ops_per_host_s", "1/s");
      ("vm.pmem_accesses_per_host_s", "1/s");
    ]
  @ List.concat_map
      (fun s ->
        List.map
          (fun what -> (Printf.sprintf "nvm.%s.%s_per_op" s what, "1/op"))
          [ "stores"; "clwbs"; "writebacks"; "fences" ]
        @ [
            (Printf.sprintf "runtime.%s.log_appends_per_op" s, "1/op");
            (Printf.sprintf "runtime.%s.log_bytes_per_op" s, "B/op");
          ])
      [ "ido"; "atlas"; "mnemosyne"; "justdo" ]
  @ [
      ("runtime.ido.boundaries_per_op", "1/op");
      ("runtime.ido.elided_boundary_frac", "fraction");
      ("recover.records_scanned", "count");
      ("recover.fases_resumed", "count");
      ("pool.speedup_vs_serial", "ratio");
      ("pool.efficiency", "ratio");
      ("serve.gen.requests_per_host_s", "1/s");
      ("serve.shard.requests_per_host_s", "1/s");
      ("serve.shard.replica_frac", "fraction");
      ("serve.shard.replayed", "count");
      ("serve.shard.failovers", "count");
      ("serve.shard.dropped", "count");
      ("serve.shard.recovery_ns", "ns");
      ("fuzz.static_only_frac", "fraction");
      ("fuzz.survivor_frac", "fraction");
      ("fuzz.shrink_runs", "count");
      ("fuzz.buckets", "count");
      ("runtime.ido_boundary_ns", "ns");
      ("runtime.undo_append_ns", "ns");
      ("runtime.justdo_store_ns", "ns");
      ("nvm.persist_store_ns", "ns");
      ("instrument.region_plan_ns", "ns");
      ("recover.crash_recover_ido_ns", "ns");
      ("recover.crash_recover_atlas_ns", "ns");
      ("gc.minor_collections", "count");
      ("gc.major_collections", "count");
      ("gc.promoted_mwords", "Mwords");
      ("gc.heap_top_mb", "MB");
      ("host.user_s", "s");
      ("host.sys_s", "s");
      ("trace.wall_s", "s");
      ("trace.overhead_frac", "fraction");
      ("trace.spans", "count");
    ]

let usage () =
  prerr_endline
    ("usage: bench.exe --workload W [--seed N] [--seconds S] [--trace 0|1] \
      [--size full|toy]\nworkloads: "
    ^ String.concat ", " workloads);
  exit 2

let round name ~seed size =
  match name with
  | "sim-closed" -> Sim_closed.round ~seed size
  | "crash-matrix" -> Crash_matrix.round ~seed size
  | "serve-steady" -> Serving.round ~storm:false ~seed size
  | "serve-storm" -> Serving.round ~storm:true ~seed size
  | _ -> Fuzz_campaign.round ~seed size

let trace name ~seed size =
  match name with
  | "sim-closed" -> Sim_closed.trace ~seed size
  | "crash-matrix" -> Crash_matrix.trace ~seed size
  | "serve-steady" -> Serving.trace ~storm:false ~seed size
  | "serve-storm" -> Serving.trace ~storm:true ~seed size
  | _ -> Fuzz_campaign.trace ~seed size

(* The process's peak resident set (VmHWM), in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
              (fun kb -> float_of_int kb /. 1024.0)
        | _ -> scan ()
      in
      scan ())

let emit ~correct ~attempted ~failed units metrics =
  List.iter
    (fun (name, unit) ->
      Printf.printf "%s %.6g %s\n" name (List.assoc name metrics) unit)
    units;
  let fields =
    List.map
      (fun (name, unit) ->
        let v = List.assoc name metrics in
        if Float.is_finite v then
          Printf.sprintf "\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}" name v unit
        else failwith (Printf.sprintf "metric %s is not finite" name))
      units
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    correct attempted failed (String.concat "," fields);
  exit (if correct then 0 else 1)

let report_errors errors = List.iter (fun e -> prerr_endline ("FAIL: " ^ e)) errors

let plain name ~seed ~seconds size =
  let t0 = Span.now_ns () in
  let rec loop acc =
    let acc = round name ~seed size :: acc in
    if List.length acc >= 3 && elapsed_since t0 >= seconds then List.rev acc
    else loop acc
  in
  let rounds = loop [] in
  List.iteri
    (fun i r ->
      Printf.eprintf "pass %d: setup %.4f s, %d units in %.4f s\n" (i + 1) r.setup_s r.units
        r.measured_s)
    rounds;
  let first = List.hd rounds in
  let errors =
    List.concat_map (fun r -> r.errors) rounds
    @
    if List.for_all (fun r -> r.digest = first.digest) rounds then []
    else [ "simulated outputs differ between passes of the same seed" ]
  in
  report_errors errors;
  List.iter (fun (n, v, u) -> Printf.printf "info.%s %.6g %s\n" n v u) first.info;
  Printf.printf "info.passes %d count\n" (List.length rounds);
  emit ~correct:(errors = [])
    ~attempted:(List.fold_left (fun a r -> a + r.attempted) 0 rounds)
    ~failed:(List.fold_left (fun a r -> a + r.failed) 0 rounds)
    end_to_end
    [
      ("setup_s", median (List.map (fun r -> r.setup_s) rounds));
      ( "units_per_s",
        median (List.map (fun r -> float_of_int r.units /. r.measured_s) rounds) );
      ("peak_rss_mb", peak_rss_mb ());
      ("ido_sim_ns", first.sim_ns);
    ]

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let traced name ~seed size =
  let t = trace name ~seed size in
  let sec = Option.get !last_section in
  let spans = Span.all () in
  let out = Filename.concat "_build" "perfbench-out" in
  mkdir_p out;
  Span.write_chrome_trace (Filename.concat out ("trace-" ^ name ^ ".json")) spans;
  let fams = Span.families spans in
  Printf.printf "%-18s %8s %10s %12s %s\n" "span" "calls" "self_s" "p50_us" "tail_us";
  List.iter
    (fun (f : Span.family) ->
      Printf.printf "%-18s %8d %10.4f %12.1f %s\n" f.Span.f_name f.Span.calls f.Span.self_s
        (f.Span.p50_s *. 1e6)
        (match f.Span.tail with
        | Some (q, s) -> Printf.sprintf "p%g=%.1f" q (s *. 1e6)
        | None -> "-"))
    fams;
  let family name = List.find_opt (fun (f : Span.family) -> f.Span.f_name = name) fams in
  let self = Span.self_total in
  let micro = Micro.run ~quota:(match size with Full -> 0.25 | Toy -> 0.01) in
  let metrics =
    List.concat_map
      (fun f ->
        [
          (f ^ ".calls", float_of_int (match family f with Some x -> x.Span.calls | None -> 0));
          (f ^ ".self_frac", self f /. sec.wall_s);
        ])
      families
    @ [ ("workloads.build_s", self "workloads.build"); ("instrument.self_s", self "instrument") ]
    @ t.t_metrics @ micro
    @ [
        ("gc.minor_collections", float_of_int sec.minor);
        ("gc.major_collections", float_of_int sec.major);
        ("gc.promoted_mwords", sec.promoted_words /. 1e6);
        ("gc.heap_top_mb", float_of_int (sec.heap_top_words * (Sys.word_size / 8)) /. 1048576.0);
        ("host.user_s", sec.user_s);
        ("host.sys_s", sec.sys_s);
        ("trace.wall_s", sec.wall_s);
        ("trace.overhead_frac", (sec.wall_s /. t.t_plain_s) -. 1.0);
        ("trace.spans", float_of_int (List.length spans));
      ]
  in
  let unknown = List.filter (fun (n, _) -> not (List.mem_assoc n per_layer)) metrics in
  if unknown <> [] then
    failwith ("per-layer metrics missing from the metric list: " ^ String.concat ", " (List.map fst unknown));
  report_errors t.t_errors;
  emit ~correct:(t.t_errors = []) ~attempted:t.t_attempted ~failed:t.t_failed per_layer
    (List.map (fun (n, _) -> (n, Option.value ~default:0.0 (List.assoc_opt n metrics))) per_layer)

let () =
  let workload = ref "" and seed = ref 42 and seconds = ref 10.0 and trace_on = ref false
  and size = ref Full in
  let int_arg r v = match int_of_string_opt v with Some n -> r := n | None -> usage () in
  let rec parse = function
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> int_arg seed v; parse rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with Some s -> seconds := s | None -> usage ());
        parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace_on := v = "1"; parse rest
    | "--size" :: "full" :: rest -> size := Full; parse rest
    | "--size" :: "toy" :: rest -> size := Toy; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if (not (List.mem !workload workloads)) || !seed < 0 then usage ();
  if !trace_on then traced !workload ~seed:!seed !size
  else plain !workload ~seed:!seed ~seconds:!seconds !size
