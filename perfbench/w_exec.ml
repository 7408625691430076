(* exec_paper: the ten builtin workloads on the compiled engine.  Each
   program is built and prepared (Executor.prepare, one domain) during
   set-up; one op is one Executor.execute pass over all ten.  Sizes
   start from the medium configs of the distributed benchmark and are
   rebalanced so that each program takes roughly a tenth of a pass. *)

open Wl

type prog = {
  name : string;
  program : Expr.program;
  bindings : (string * Fractal.t) list;
  matches : (string * Fractal.t) list -> bool;
      (** outputs agree (equal_approx) with the imperative reference *)
}

let out = Vm.output
let approx ?eps name r outs = Fractal.equal_approx ?eps (out outs name) r

let programs ~seed =
  let rng = Wl.rng ~seed in
  [
    (let c = { Stacked_rnn.batch = 8; depth = 4; seq_len = 16; hidden = 128 } in
     let i = Stacked_rnn.gen_inputs (rng 0) c in
     { name = "stacked_rnn"; program = Stacked_rnn.program c;
       bindings = Stacked_rnn.bindings i;
       matches = approx "stacked_rnn" (Stacked_rnn.reference c i) });
    (let c = { Stacked_lstm.batch = 4; depth = 4; seq_len = 12; hidden = 64 } in
     let i = Stacked_lstm.gen_inputs (rng 1) c in
     let cs, hs = Stacked_lstm.reference c i in
     { name = "stacked_lstm"; program = Stacked_lstm.program c;
       bindings = Stacked_lstm.bindings i;
       matches = (fun o -> approx "stacked_lstm.0" cs o && approx "stacked_lstm.1" hs o) });
    (let c = { Dilated_rnn.batch = 8; layers = 4; seq_len = 32; hidden = 64 } in
     let i = Dilated_rnn.gen_inputs (rng 2) c in
     let r = Dilated_rnn.reference c i in
     { name = "dilated_rnn"; program = Dilated_rnn.program c;
       bindings = Dilated_rnn.bindings i;
       matches = (fun o ->
         Fractal.equal_approx (Dilated_rnn.flatten_output c (out o "dilated_rnn")) r) });
    (let c = { Grid_rnn.batch = 4; depth = 2; rows = 8; cols = 8; hidden = 64 } in
     let i = Grid_rnn.gen_inputs (rng 3) c in
     { name = "grid_rnn"; program = Grid_rnn.program c;
       bindings = Grid_rnn.bindings i;
       matches = approx "grid_rnn" (Grid_rnn.reference c i) });
    (let c = { B2b_gemm.m_blocks = 8; block_m = 128; k = 64; n = 64; p = 64 } in
     let i = B2b_gemm.gen_inputs (rng 4) c in
     { name = "b2b_gemm"; program = B2b_gemm.program c;
       bindings = B2b_gemm.bindings i;
       matches = approx "b2b_gemm" (B2b_gemm.reference c i) });
    (let c = { Flash_attention.batch = 1; heads = 2; q_blocks = 8; kv_blocks = 8;
               block = 16; head_dim = 64 } in
     let i = Flash_attention.gen_inputs (rng 5) c in
     { name = "flash_attention"; program = Flash_attention.program c;
       bindings = Flash_attention.bindings i;
       matches = approx "flash_attention" (Flash_attention.reference c i) });
    (let c = { Conv1d.batch = 8; seq_len = 32; taps = 9; channels = 64; filters = 64 } in
     let i = Conv1d.gen_inputs (rng 6) c in
     let r = Conv1d.reference c i in
     { name = "conv1d"; program = Conv1d.program c;
       bindings = Conv1d.bindings i;
       matches = (fun o ->
         (* the output keeps every tap's running sum; the last is the
            convolution *)
         let final =
           Soac.map
             (fun per_n -> Soac.map (fun per_pos -> Fractal.get per_pos (c.Conv1d.taps - 1)) per_n)
             (out o "conv1d")
         in
         Fractal.equal_approx final r) });
    (let c = { Selective_scan.batch = 32; seq_len = 64; hidden = 256 } in
     let i = Selective_scan.gen_inputs (rng 7) c in
     { name = "selective_scan"; program = Selective_scan.program c;
       bindings = Selective_scan.bindings i;
       matches = approx "selective_scan" (Selective_scan.reference c i) });
    (let c = { Retention.batch = 1; heads = 4; chunks = 8; chunk = 16; head_dim = 64;
               gamma = 0.9 } in
     let i = Retention.gen_inputs (rng 8) c in
     { name = "retention"; program = Retention.program c;
       bindings = Retention.bindings i;
       matches = approx ~eps:1e-4 "retention" (Retention.reference c i) });
    (let c = { Bigbird.batch = 5; blocks = 8; block = 16; dim = 128; window = 3 } in
     let i = Bigbird.gen_inputs (rng 9) c in
     { name = "bigbird"; program = Bigbird.program c;
       bindings = Bigbird.bindings i;
       matches = approx "bigbird" (Bigbird.reference c i) });
  ]

let names =
  [ "stacked_rnn"; "stacked_lstm"; "dilated_rnn"; "grid_rnn"; "b2b_gemm";
    "flash_attention"; "conv1d"; "selective_scan"; "retention"; "bigbird" ]

let setup ~seed ~rep:_ =
  let progs = Array.of_list (programs ~seed) in
  assert (List.map (fun p -> p.name) (Array.to_list progs) = names);
  let graphs = Array.map (fun p -> Build.build p.program) progs in
  let t0 = now () in
  let prepared = Array.map (fun g -> Executor.prepare ~opts g) graphs in
  let prepare_ms = (now () -. t0) *. 1e3 in
  Array.iteri
    (fun i pr ->
      if Executor.engine pr <> "compiled" then
        failwith (progs.(i).name ^ ": engine " ^ Executor.engine pr))
    prepared;
  let n = Array.length progs in
  (* the warm-up pass; every later pass must reproduce it bit for bit *)
  let first = Array.mapi (fun i pr -> Executor.execute pr progs.(i).bindings) prepared in
  let outs = Array.make n [] in
  let alloc_words = ref 0. in
  let run () =
    for i = 0 to n - 1 do
      outs.(i) <- [];
      if !Spans.enabled then begin
        let w0 = Gc.minor_words () in
        outs.(i) <- span ("codegen.execute." ^ progs.(i).name) (fun () ->
            Executor.execute prepared.(i) progs.(i).bindings);
        alloc_words := !alloc_words +. (Gc.minor_words () -. w0)
      end
      else outs.(i) <- Executor.execute prepared.(i) progs.(i).bindings
    done
  in
  let check () =
    let bad = ref None in
    for i = n - 1 downto 0 do
      let p = progs.(i) in
      if not (p.matches outs.(i)) then bad := fail "%s: differs from the reference" p.name
      else if not (Dist.bitwise_equal outs.(i) first.(i)) then
        bad := fail "%s: not bitwise equal to the first pass" p.name
    done;
    !bad
  in
  let compiled = Array.map (fun pr -> Option.get (Executor.compiled pr)) prepared in
  let sum f = Array.fold_left (fun acc x -> acc +. f x) 0. in
  let layers ~ops ~self_ms =
    let per x = x /. float_of_int ops in
    let fusion f =
      sum (fun c -> float_of_int (List.fold_left (fun a s -> a + f s) 0 (Compiled.fusion_stats c))) compiled
    in
    List.map (fun p -> ("codegen.execute_ms." ^ p.name, per (self_ms ("codegen.execute." ^ p.name))))
      (Array.to_list progs)
    @ [
        ("codegen.prepare_ms", prepare_ms);
        ("analysis.races_unproven",
          sum (fun g ->
              float_of_int
                (List.length
                   (List.filter
                      (fun r -> match r.Effects.rr_verdict with Effects.Proven _ -> false | _ -> true)
                      (Effects.race_check g))))
            graphs);
        ("codegen.fused_ops", fusion (fun s -> s.Compiled.fs_fused_ops));
        ("codegen.packed_gemms", fusion (fun s -> s.Compiled.fs_packed));
        ("codegen.seq_fallbacks",
          sum (fun c -> float_of_int (List.length (Compiled.sequential_fallbacks c))) compiled);
        ("codegen.arena_mb",
          sum (fun c -> float_of_int (Compiled.arena_floats c) *. 8. /. 1048576.) compiled);
        ("codegen.execute_alloc_words", per !alloc_words);
      ]
  in
  { ops = [| { label = "pass"; run; check; work = float_of_int n } |]; layers }
