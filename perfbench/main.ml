(* The repo's benchmark: one process, one OCaml domain, four closed-loop
   workloads.  See README.md for what each workload runs and why.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   A host-speed probe (probe.ml) runs after every timed op, so each op
   has a probe on either side; [op_norm_p50] sets each op against their
   mean, and every time in the end-to-end table is scaled by the same
   factor to the reference host (Probe.ref_ms).  With [--trace 1] a span
   is recorded around each call into a layer, and the last line reports
   per-layer metrics instead of end-to-end ones. *)

let e2e =
  [
    ("setup_s", "s"); ("op_ms_p50", "ms"); ("op_ms_tail", "ms");
    ("op_norm_p50", "ratio"); ("work_per_s", "1/s"); ("peak_rss_mb", "MB");
    ("alloc_mb_per_op", "MB");
  ]

let per_layer =
  [
    ("host.probe_ms", "ms"); ("host.fma_gflops", "GFLOP/s");
    ("fractal.parse_ms", "ms"); ("etdg.build_ms", "ms");
    ("etdg.coarsen_ms", "ms"); ("etdg.reorder_ms", "ms");
    ("etdg.blocks_merged", "count"); ("analysis.verify_ms", "ms");
    ("analysis.race_ms", "ms"); ("analysis.races_unproven", "count");
    ("codegen.emit_ms", "ms"); ("gpusim.price_ms", "ms");
    ("gpusim.sim_ms", "ms"); ("gpusim.kernels", "count");
    ("codegen.prepare_ms", "ms");
  ]
  @ List.map (fun n -> ("codegen.execute_ms." ^ n, "ms")) W_exec.names
  @ [
      ("codegen.fused_ops", "count"); ("codegen.packed_gemms", "count");
      ("codegen.seq_fallbacks", "count"); ("codegen.arena_mb", "MB");
      ("codegen.execute_alloc_words", "words");
      ("tensor.gemm_gflops", "GFLOP/s"); ("tensor.gemm_peak_frac", "ratio");
    ]
  @ List.concat_map
      (fun t ->
        [
          ("serve.tick_ms." ^ t, "ms"); ("serve.exec_ms." ^ t, "ms");
          ("serve.overhead_ms." ^ t, "ms"); ("serve.ticks." ^ t, "count");
          ("serve.mean_occupancy." ^ t, "slots");
        ])
      W_serve.names
  @ [
      ("dist.partition_ms", "ms"); ("dist.verify_ms", "ms");
      ("dist.exec_ms", "ms"); ("dist.price_ms", "ms");
      ("dist.transfers", "count"); ("dist.device_xfers", "count");
      ("dist.xfer_mb", "MB"); ("dist.fallbacks", "count");
      ("gpusim.dist_sim_ms", "ms"); ("unattributed_ms", "ms");
    ]

let workloads =
  [
    ("compile_paper", W_compile.setup);
    ("exec_paper", W_exec.setup);
    ("serve_mix", W_serve.setup);
    ("shard_2dev", W_shard.setup);
  ]

(* Settings the program reads from the environment and that would make
   a run depend on more than its seed. *)
let rejected_env = [ "FT_PLAN_CACHE"; "FT_TUNE_DB"; "FT_NUM_DOMAINS"; "FT_SHADOW" ]
let setup_reps = 7

(* The tail is p90, and a run goes on past --seconds until it has
   [min_ops] ops, so that at least ten samples lie beyond it. *)
let tail_pct = 90.
let min_ops = 100

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

let args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let rec go = function
    | "--workload" :: v :: r -> workload := v; go r
    | "--seed" :: v :: r -> seed := int_of_string v; go r
    | "--seconds" :: v :: r -> seconds := int_of_string v; go r
    | "--trace" :: v :: r -> trace := int_of_string v; go r
    | [] -> ()
    | a :: _ -> die "unknown argument %s" a
  in
  (try go (List.tl (Array.to_list Sys.argv))
   with Failure _ -> die "numeric argument expected");
  (!workload, !seed, !seconds, !trace = 1)

(* ------------------------------ stats ------------------------------ *)

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
      let n = List.length s in
      if n mod 2 = 1 then List.nth s (n / 2)
      else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.

let mean xs = List.fold_left ( +. ) 0. xs /. float_of_int (max 1 (List.length xs))

(* Median and tail of op times when a round holds ops of several
   programs ([compile_paper]): the median is the geometric mean of the
   programs' own medians, so that every program moves it, and the tail
   is that times the p90 of each op's time over its program's median.
   With one program per round both are the plain median and p90.
   [samples] is a list of (program, time) pairs. *)
let p50_and_tail samples =
  let labels = List.sort_uniq compare (List.map fst samples) in
  let meds =
    List.map
      (fun l -> (l, median (List.filter_map (fun (k, v) -> if k = l then Some v else None) samples)))
      labels
  in
  let p50 = exp (mean (List.map (fun (_, m) -> log m) meds)) in
  let rel = List.map (fun (l, v) -> v /. List.assoc l meds) samples in
  (p50, p50 *. Metrics.percentile_of rel tail_pct)

let vm_hwm_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb -> float_of_int kb /. 1024.)
    | _ -> find ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* Packed GEMM at the lstm tenant's per-tick shape [8,H]@[H,H]. *)
let gemm_gflops =
  let h = W_serve.lstm_hidden and rows = W_serve.max_batch and iters = 400 in
  let rng = Rng.create 11 in
  let a = Tensor.rand rng (Shape.of_array [| rows; h |]) in
  let b = Tensor.pack_b (Tensor.rand rng (Shape.of_array [| h; h |])) in
  let dst = Tensor.zeros (Shape.of_array [| rows; h |]) in
  fun () ->
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      Tensor.matmul_packed_into ~beta:0. ~dst a b
    done;
    let s = Unix.gettimeofday () -. t0 in
    2. *. float_of_int (rows * h * h * iters) /. (s *. 1e9)

(* ------------------------------- run ------------------------------- *)

let print_table title rows =
  Printf.printf "%s\n" title;
  List.iter (fun (n, v, u) -> Printf.printf "  %-34s %14.6g %s\n" n v u) rows

let json_line ~correct ~attempted ~failed metrics =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    correct attempted failed;
  List.iteri
    (fun i (n, v, u) ->
      Printf.bprintf b "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}"
        (if i = 0 then "" else ", ") n v u)
    metrics;
  Buffer.add_string b "}}";
  Buffer.contents b

let () =
  let name, seed, seconds, traced = args () in
  let setup =
    match List.assoc_opt name workloads with
    | Some s -> s
    | None ->
        die "unknown workload %S (have: %s)" name
          (String.concat ", " (List.map fst workloads))
  in
  List.iter
    (fun v ->
      if Sys.getenv_opt v <> None then die "refusing to run with %s set" v)
    rejected_env;
  let probe = Probe.create () in
  (* set up several times, each between two probe points (the median
     of three probes); report the median, keep the last *)
  Wl.traced := traced;
  let probe_point () =
    median (List.init 3 (fun _ -> Probe.run probe))
  in
  let setups = ref [] and setups_raw = ref [] and w = ref None in
  let before = ref (probe_point ()) in
  for rep = 0 to setup_reps - 1 do
    w := None;
    Pipeline.Cache.clear ();
    let t0 = Unix.gettimeofday () in
    (try w := Some (setup ~seed ~rep)
     with e -> die "set-up failed: %s" (Printexc.to_string e));
    let s = Unix.gettimeofday () -. t0 in
    let after = probe_point () in
    setups_raw := s :: !setups_raw;
    setups := (s *. Probe.ref_ms /. ((!before +. after) /. 2.)) :: !setups;
    before := after
  done;
  let w = Option.get !w in
  Spans.enabled := traced;
  let norms = ref [] and raws = ref [] and allocs = ref [] in
  let probes = ref [] and gflops = ref [] and gemm = ref [] in
  let work = ref 0. and attempted = ref 0 and failed = ref 0 in
  let prev = ref (Probe.run probe) in
  let t_start = Unix.gettimeofday () in
  while
    !attempted < min_ops || Unix.gettimeofday () -. t_start < float_of_int seconds
  do
    Array.iter
      (fun (op : Wl.op) ->
        Spans.cur_op := !attempted;
        incr attempted;
        let minor0, promoted0, major0 = Gc.counters () in
        let t0 = Unix.gettimeofday () in
        let raised =
          try Spans.span "op" op.run; None
          with e -> Some (Printexc.to_string e)
        in
        let t1 = Unix.gettimeofday () in
        let minor1, promoted1, major1 = Gc.counters () in
        let pb = Probe.run probe in
        let ms = (t1 -. t0) *. 1e3 in
        raws := (op.label, ms) :: !raws;
        norms := (op.label, ms /. ((!prev +. pb) /. 2.)) :: !norms;
        allocs :=
          ((minor1 -. minor0) +. (major1 -. major0) -. (promoted1 -. promoted0))
          *. 8. /. 1048576.
          :: !allocs;
        probes := pb :: !probes;
        prev := pb;
        let problem =
          match raised with Some e -> Some ("raised " ^ e) | None -> op.check ()
        in
        (match problem with
        | Some m ->
            incr failed;
            Printf.eprintf "perfbench: op %d (%s) failed: %s\n%!" !attempted op.label m
        | None -> work := !work +. op.work);
        if traced then begin
          gflops := Probe.peak_gflops probe :: !gflops;
          gemm := gemm_gflops () :: !gemm
        end)
      w.Wl.ops
  done;
  let n = List.length !norms in
  let sum = List.fold_left ( +. ) 0. in
  let norm_p50, norm_tail = p50_and_tail !norms in
  let raw_p50, raw_tail = p50_and_tail !raws in
  let op_ms = List.map (fun (_, v) -> v *. Probe.ref_ms) !norms in
  let e2e_values =
    [
      ("setup_s", median !setups);
      ("op_ms_p50", norm_p50 *. Probe.ref_ms);
      ("op_ms_tail", norm_tail *. Probe.ref_ms);
      ("op_norm_p50", norm_p50);
      ("work_per_s", !work /. (sum op_ms /. 1e3));
      ("peak_rss_mb", vm_hwm_mb () -. (float_of_int Probe.footprint_bytes /. 1048576.));
      ("alloc_mb_per_op", mean !allocs);
    ]
  in
  let raw_values =
    [
      ("setup_s", median !setups_raw);
      ("op_ms_p50", raw_p50);
      ("op_ms_tail", raw_tail);
      ("work_per_s", !work /. (sum (List.map snd !raws) /. 1e3));
    ]
  in
  let with_units specs values =
    List.map (fun (n, u) -> (n, Option.value (List.assoc_opt n values) ~default:0., u)) specs
  in
  let e2e_rows = with_units e2e e2e_values in
  Printf.printf
    "perfbench %s: seed %d, %d ops in %.1f s (tail = p%.0f of %d samples, %d beyond it); \
     median probe %.3f ms against a %.1f ms reference\n"
    name seed n (Unix.gettimeofday () -. t_start) tail_pct n
    (n - int_of_float (Float.ceil (tail_pct /. 100. *. float_of_int n)))
    (median !probes) Probe.ref_ms;
  Printf.printf "set-ups (raw s): %s\n"
    (String.concat " " (List.rev_map (Printf.sprintf "%.3f") !setups_raw));
  Printf.printf "%s\n" (if traced then "end-to-end (traced run)" else "end-to-end");
  List.iter
    (fun (m, v, u) ->
      match List.assoc_opt m raw_values with
      | Some r -> Printf.printf "  %-34s %14.6g %-6s (raw %.6g)\n" m v u r
      | None -> Printf.printf "  %-34s %14.6g %s\n" m v u)
    e2e_rows;
  if Array.length w.Wl.ops > 1 then
    print_table "op_ms_p50 by program"
      (Array.to_list
         (Array.map
            (fun (op : Wl.op) ->
              ( op.label,
                median
                  (List.filter_map
                     (fun (l, v) -> if l = op.label then Some (v *. Probe.ref_ms) else None)
                     !norms),
                "ms" ))
            w.Wl.ops));
  let metrics =
    if not traced then e2e_rows
    else begin
      let totals = Spans.self_totals () in
      let self_ms s = Option.value (Hashtbl.find_opt totals s) ~default:0. in
      let host_gflops = median !gflops and gemm_gf = median !gemm in
      let values =
        [
          ("host.probe_ms", median !probes);
          ("host.fma_gflops", host_gflops);
          ("tensor.gemm_gflops", gemm_gf);
          ("tensor.gemm_peak_frac", gemm_gf /. host_gflops);
          ("unattributed_ms", self_ms "op" /. float_of_int n);
        ]
        @ w.Wl.layers ~ops:n ~self_ms
      in
      List.iter
        (fun (m, _) ->
          if not (List.mem_assoc m per_layer) then die "metric %s is not declared" m)
        values;
      let rows = with_units per_layer values in
      print_table "per layer (raw ms, mean per op; counts and simulated times are deterministic)"
        (List.filter (fun (m, _, _) -> List.mem_assoc m values) rows);
      (match Spans.to_chrome () with
      | Ok doc ->
          let dir = Filename.concat "perfbench" "out" in
          if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
          let path = Filename.concat dir ("trace-" ^ name ^ ".json") in
          Out_channel.with_open_bin path (fun oc -> output_string oc doc);
          Printf.printf "chrome trace: %s (%d spans)\n" path (List.length !Spans.recorded)
      | Error e -> die "chrome trace is not valid JSON: %s" e);
      rows
    end
  in
  print_endline (json_line ~correct:(!failed = 0) ~attempted:!attempted ~failed:!failed metrics)
