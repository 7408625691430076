(* compile_paper: the paper's Table-6 workloads, from .ft source text
   to a priced plan.  One op compiles one program the way [ftc compile]
   does — Parse -> Typecheck -> Pipeline.compile ~verify:true — and
   prices the plan on the simulated A100.  Nothing executes.  A round
   is every program once, in a seed-chosen order. *)

open Wl

(* Closed-form FLOP counts, from each model's math: a [1,H]@[H,H]
   GEMV is 2H^2, elementwise gate math is a few H per cell. *)
let programs =
  let srnn = { Stacked_rnn.paper with batch = 32 } in
  let lstm = { Stacked_lstm.paper with batch = 32 } in
  let drnn = Dilated_rnn.paper in
  let grid = { Grid_rnn.paper with batch = 32 } in
  let b2b = B2b_gemm.paper in
  let fa = { Flash_attention.paper with batch = 1 } in
  let bb = Bigbird.paper in
  let f = float_of_int in
  [
    ( "stacked_rnn", Stacked_rnn.program srnn,
      (let h = f srnn.hidden in
       f (srnn.batch * srnn.depth * srnn.seq_len) *. ((2. *. h *. h) +. h)) );
    ( "stacked_lstm", Stacked_lstm.program lstm,
      (let h = f lstm.hidden in
       f (lstm.batch * lstm.depth * lstm.seq_len)
       *. ((16. *. h *. h) +. (10. *. h))) );
    ( "dilated_rnn", Dilated_rnn.program drnn,
      (let h = f drnn.hidden in
       f (drnn.batch * drnn.layers * drnn.seq_len) *. ((4. *. h *. h) +. h)) );
    ( "grid_rnn", Grid_rnn.program grid,
      (let h = f grid.hidden in
       f (grid.batch * grid.depth * grid.rows * grid.cols)
       *. ((6. *. h *. h) +. (3. *. h))) );
    ( "b2b_gemm", B2b_gemm.program b2b,
      (let m = f (b2b.m_blocks * b2b.block_m) in
       (2. *. m *. f b2b.n *. f b2b.k) +. (2. *. m *. f b2b.p *. f b2b.n)) );
    ( "flash_attention", Flash_attention.program fa,
      (* per (q block, kv block) step on b x d tiles: two b x b x d
         GEMMs, rowmax/sub/exp/rowsum over the b x b scores, the
         rescale of o (2bd) and 5b of running statistics; one b x d
         division per q block at the end *)
      (let b = f fa.block and d = f fa.head_dim in
       f (fa.batch * fa.heads * fa.q_blocks)
       *. ((f fa.kv_blocks
            *. ((4. *. b *. b *. d) +. (4. *. b *. b) +. (2. *. b *. d) +. (5. *. b)))
          +. (b *. d))) );
    ( "bigbird", Bigbird.program bb,
      (let b = f bb.block and d = f bb.dim and c = f (bb.window + 2) in
       f (bb.batch * (bb.blocks - 4))
       *. ((4. *. c *. b *. b *. d) +. (4. *. c *. b *. b))) );
  ]

type result = {
  r_built_blocks : int;
  r_merged_blocks : int;
  r_errors : int;  (** error-severity diagnostics over every stage *)
  r_flops : float;  (** Emit.graph_flops of the emission graph *)
  r_digest : string;
  r_sim : Engine.metrics;
}

let errors ds = List.length (List.filter Diagnostic.is_error ds)

(* The untimed path [ftc compile] takes. *)
let compile src =
  let p = Parse.program src in
  ignore (Typecheck.check_program p);
  let r = Pipeline.compile ~verify:true p in
  let sim = Executor.metrics r.Pipeline.p_plan in
  let graph st = Option.get (Pipeline.stage_graph r st) in
  {
    r_built_blocks = List.length (graph Pipeline.Build).Ir.g_blocks;
    r_merged_blocks = List.length (graph Pipeline.Merge).Ir.g_blocks;
    r_errors =
      List.fold_left
        (fun n (_, ds) -> n + errors ds)
        (errors (Option.value r.Pipeline.p_emit_diagnostics ~default:[]))
        (Pipeline.stage_diagnostics r);
    r_flops = Emit.graph_flops r.Pipeline.p_emit_graph;
    r_digest = Plan.digest r.Pipeline.p_plan;
    r_sim = sim;
  }

(* The same compile, stage by stage, with a span around each call into
   a layer: Pipeline.compile ~verify:true runs exactly these passes and
   checks (Verify.graph = the ~check_races:false checks followed by
   Effects.race_diagnostics), so the plan digest must come out equal. *)
let compile_traced src =
  let p =
    span "fractal.parse" (fun () ->
        let p = Parse.program src in
        ignore (Typecheck.check_program p);
        p)
  in
  let errs = ref 0 in
  let check stage g =
    errs := !errs + errors (span "analysis.verify" (fun () ->
        Verify.graph ~stage ~check_races:false g));
    errs := !errs + errors (span "analysis.race" (fun () ->
        Effects.race_diagnostics ~stage g))
  in
  let g0 = span "etdg.build" (fun () -> Build.build p) in
  check "build" g0;
  let g1 = span "etdg.coarsen" (fun () -> Coarsen.group_regions g0) in
  check "coarsen.group" g1;
  let g2 = span "etdg.coarsen" (fun () -> Coarsen.merge_only g1) in
  check "coarsen.merge" g2;
  let rs, g3 = span "etdg.reorder" (fun () -> Reorder.reorder g2) in
  errs := !errs + errors (span "analysis.verify" (fun () ->
      let stage = "reorder" in
      Verify.structure ~stage g3 @ Verify.access_maps ~stage g3
      @ List.concat_map
          (fun (name, (r : Reorder.result)) ->
            match List.find_opt (fun b -> b.Ir.blk_name = name) g2.Ir.g_blocks with
            | Some b -> Verify.schedule ~stage b r.Reorder.transform
            | None -> [])
          rs));
  check "emit" g2;
  let plan =
    span "codegen.emit" (fun () ->
        Emit.emit_plan ~collapse_reuse:true ~tile:Tile.default_config g2)
  in
  let sim = span "gpusim.price" (fun () -> Executor.metrics plan) in
  {
    r_built_blocks = List.length g0.Ir.g_blocks;
    r_merged_blocks = List.length g2.Ir.g_blocks;
    r_errors = !errs;
    r_flops = Emit.graph_flops g2;
    r_digest = Plan.digest plan;
    r_sim = sim;
  }

let setup ~seed ~rep:_ =
  (* the seed picks the order programs are compiled in within a round *)
  let st = Random.State.make [| seed |] in
  let progs =
    List.map (fun x -> (Random.State.bits st, x)) programs
    |> List.sort compare |> List.map snd
  in
  let merged = ref 0 and sim_ms = ref 0. and kernels = ref 0 in
  let ops =
    List.map
      (fun (name, prog, closed_flops) ->
        let src = Unparse.program prog in
        (* the warm-up compile; every op must reproduce its plan *)
        let digest0 = (compile src).r_digest in
        let last = ref None in
        let run () =
          last := None;
          last := Some (if !Spans.enabled then compile_traced src else compile src)
        in
        let check () =
          match !last with
          | None -> fail "%s: no result" name
          | Some r ->
              merged := !merged + (r.r_built_blocks - r.r_merged_blocks);
              sim_ms := !sim_ms +. r.r_sim.Engine.time_ms;
              kernels := !kernels + r.r_sim.Engine.kernels;
              first
                [
                  (fun () ->
                    if r.r_errors > 0 then
                      fail "%s: %d verifier errors" name r.r_errors
                    else None);
                  (fun () ->
                    if name = "stacked_lstm" && r.r_built_blocks <> 4 then
                      fail "stacked_lstm: %d ETDG blocks, the paper has 4"
                        r.r_built_blocks
                    else None);
                  (fun () ->
                    let rel = Float.abs (r.r_flops -. closed_flops) /. closed_flops in
                    if rel > 0.01 then
                      fail "%s: emitted %.6g flops, closed form %.6g (%.2f%%)"
                        name r.r_flops closed_flops (100. *. rel)
                    else None);
                  (fun () ->
                    if r.r_digest <> digest0 then fail "%s: plan digest changed" name
                    else None);
                ]
        in
        { label = name; run; check; work = 1. })
      progs
  in
  let layers ~ops ~self_ms =
    let per x = x /. float_of_int ops in
    List.map (fun n -> (n ^ "_ms", per (self_ms n)))
      [ "fractal.parse"; "etdg.build"; "etdg.coarsen"; "etdg.reorder";
        "analysis.verify"; "analysis.race"; "codegen.emit"; "gpusim.price" ]
    @ [
        ("etdg.blocks_merged", per (float_of_int !merged));
        ("gpusim.sim_ms", per !sim_ms);
        ("gpusim.kernels", per (float_of_int !kernels));
      ]
  in
  { ops = Array.of_list ops; layers }
