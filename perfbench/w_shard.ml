(* shard_2dev: stacked LSTM (auto partition: batch-sharded) and a
   sequence-sharded selective scan, across 2 simulated devices.  One
   op runs, for both programs, Shard.partition -> Shard.verify ->
   Dist_exec.run -> Dist.simulate.  Dist_exec.run gets no pool, so
   the coordinator runs each device's shard in turn; the shard work
   and the transfers are those of a pooled run. *)

open Wl

let devices = 2

type prog = {
  name : string;
  graph : Ir.graph;
  bindings : (string * Fractal.t) list;
  strategy : Shard.strategy option;
  matches : (string * Fractal.t) list -> bool;
}

let programs ~seed =
  let rng = Wl.rng ~seed in
  [
    (let c = { Stacked_lstm.batch = 8; depth = 4; seq_len = 12; hidden = 64 } in
     let i = Stacked_lstm.gen_inputs (rng 0) c in
     let cs, hs = Stacked_lstm.reference c i in
     { name = "stacked_lstm"; graph = Build.build (Stacked_lstm.program c);
       bindings = Stacked_lstm.bindings i; strategy = None;
       matches = (fun o ->
         Fractal.equal_approx (Vm.output o "stacked_lstm.0") cs
         && Fractal.equal_approx (Vm.output o "stacked_lstm.1") hs) });
    (let c = { Selective_scan.batch = 64; seq_len = 32; hidden = 64 } in
     let i = Selective_scan.gen_inputs (rng 1) c in
     let r = Selective_scan.reference c i in
     { name = "selective_scan"; graph = Build.build (Selective_scan.program c);
       bindings = Selective_scan.bindings i; strategy = Some Shard.Sequence;
       matches = (fun o -> Fractal.equal_approx (Vm.output o "selective_scan") r) });
  ]

type result = {
  plan : Shard.plan;
  diags : Diagnostic.t list;
  outs : (string * Fractal.t) list;
  log : Dist_exec.log;
  sim : Engine.dist_metrics;
}

type stats = {
  mutable xfers : int;
  mutable device_xfers : int;
  mutable xfer_bytes : float;
  mutable fallbacks : int;
  mutable sim_ms : float;
}

let setup ~seed ~rep:_ =
  let progs = Array.of_list (programs ~seed) in
  (* the 1-device compiled engine: the bitwise reference *)
  let single = Array.map (fun p -> Executor.run ~opts p.graph p.bindings) progs in
  let n = Array.length progs in
  let results = Array.make n None in
  let run () =
    Array.iteri
      (fun i p ->
        results.(i) <- None;
        let plan =
          span "dist.partition" (fun () ->
              Shard.partition ?strategy:p.strategy ~devices p.graph)
        in
        let diags = span "dist.verify" (fun () -> Shard.verify p.graph plan) in
        if Shard.legal diags then begin
          let outs, log =
            span "dist.exec" (fun () -> Dist_exec.run ~plan p.graph p.bindings)
          in
          let sim = span "dist.price" (fun () -> Dist.simulate p.graph log) in
          results.(i) <- Some { plan; diags; outs; log; sim }
        end)
      progs
  in
  let st = { xfers = 0; device_xfers = 0; xfer_bytes = 0.; fallbacks = 0; sim_ms = 0. } in
  let check () =
    let bad = ref None in
    for i = n - 1 downto 0 do
      let p = progs.(i) in
      match results.(i) with
      | None -> bad := fail "%s: Shard.verify reported errors" p.name
      | Some r ->
          let count, bytes = Dist_exec.xfer_totals r.log in
          st.xfers <- st.xfers + count;
          st.xfer_bytes <- st.xfer_bytes +. bytes;
          st.device_xfers <- st.device_xfers + Dist_exec.device_xfers r.log;
          st.fallbacks <- st.fallbacks + List.length r.log.Dist_exec.lg_fallbacks;
          st.sim_ms <- st.sim_ms +. r.sim.Engine.dm_time_ms;
          if List.exists Diagnostic.is_error r.diags then
            bad := fail "%s: Shard.verify reported errors" p.name
          else if
            p.strategy = Some Shard.Sequence
            && not
                 (List.exists
                    (fun (_, b) -> b.Shard.sh_strategy = Shard.Sequence)
                    r.plan.Shard.pl_blocks)
          then bad := fail "%s: no block is sequence-sharded" p.name
          else if not (Dist.bitwise_equal r.outs single.(i)) then
            bad := fail "%s: differs from the 1-device engine" p.name
          else if not (p.matches r.outs) then
            bad := fail "%s: differs from the reference" p.name
    done;
    !bad
  in
  let op = { label = "shard"; run; check; work = float_of_int n } in
  op.run ();
  Option.iter failwith (op.check ());
  st.xfers <- 0; st.device_xfers <- 0; st.xfer_bytes <- 0.; st.fallbacks <- 0; st.sim_ms <- 0.;
  let layers ~ops ~self_ms =
    let per x = x /. float_of_int ops in
    List.map (fun n -> (n ^ "_ms", per (self_ms n)))
      [ "dist.partition"; "dist.verify"; "dist.exec"; "dist.price" ]
    @ [
        ("dist.transfers", per (float_of_int st.xfers));
        ("dist.device_xfers", per (float_of_int st.device_xfers));
        ("dist.xfer_mb", per st.xfer_bytes /. 1048576.);
        ("dist.fallbacks", per (float_of_int st.fallbacks));
        ("gpusim.dist_sim_ms", per st.sim_ms);
      ]
  in
  { ops = [| op |]; layers }
