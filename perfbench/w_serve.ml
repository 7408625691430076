(* serve_mix: one op serves a fixed, seeded request plan through
   Serve.run_requests (max_batch 8) for two tenants, one after the
   other.  Arrivals are Poisson in virtual ticks; everything is queued
   up front and admission is gated by the arrival tick, so the
   join/leave schedule is a pure function of the seed.

   - lstm: a stacked-LSTM servable; its ticks are bound by the
     row-batched [W,H] GEMMs inside Executor.execute.
   - scan: a selective-scan servable; its ticks are tiny, so they are
     bound by admit/mux/demux around the executor. *)

open Wl

type tenant = {
  t_name : string;
  t_servable : Servable.t;
  t_requests : int;
  t_len : int;  (** tokens per request *)
  t_rate : float;
      (** arrivals per tick, above the service rate.  [lstm]'s few
          requests all arrive in the first tick, so its tick count does
          not depend on the seed. *)
}

let max_batch = 8
let lstm_hidden = 128

let tenants () =
  [
    { t_name = "lstm";
      t_servable = Servable.stacked_lstm ~depth:4 ~seq_len:16 ~hidden:lstm_hidden;
      t_requests = 16; t_len = 6; t_rate = 64.0 };
    { t_name = "scan";
      t_servable = Servable.selective_scan ~seq_len:32 ~hidden:256;
      t_requests = 400; t_len = 32; t_rate = 1.0 };
  ]

let names = [ "lstm"; "scan" ]

type stats = {
  mutable ticks : int;
  mutable exec_ms : float;
  mutable occupancy : float;
}

let setup ~seed ~rep =
  let tenants = tenants () in
  assert (List.map (fun t -> t.t_name) tenants = names);
  let prepare_ms = ref 0. in
  let per_tenant =
    List.mapi
      (fun k t ->
        let sv = t.t_servable in
        (* A fresh tenant key per set-up repetition: Session caches
           prepared executables process-wide by tenant, and each
           set-up must pay for its own. *)
        let key = Printf.sprintf "%s#%d" t.t_name rep in
        let plan =
          Loadgen.plan ~seed:((seed * 31) + k) ~n:t.t_requests ~rate:t.t_rate
            ~len_lo:t.t_len ~len_hi:t.t_len
        in
        let mk () = Loadgen.requests ~tenant:key sv ~seed:(seed + k) plan in
        let reqs = mk () in
        (* the reference: every request served alone *)
        let solo = (Serve.solo ~tenant:key ~opts sv (mk ())).Serve.oc_completed in
        if !Wl.traced then begin
          (* what the session's first use of each batch width costs *)
          let t0 = now () in
          Array.iter
            (fun w -> ignore (Executor.prepare ~opts (Build.build (sv.Servable.sv_step w))))
            (Batch.buckets (Batch.create ~max_batch));
          prepare_ms := !prepare_ms +. ((now () -. t0) *. 1e3)
        end;
        let outcome = ref None in
        let st = { ticks = 0; exec_ms = 0.; occupancy = 0. } in
        let run () =
          outcome := None;
          Array.iter Request.reset reqs;
          outcome := Some (span ("serve." ^ t.t_name) (fun () ->
              Serve.run_requests ~tenant:key ~opts ~max_batch sv reqs))
        in
        let check () =
          match !outcome with
          | None -> fail "%s: no outcome" t.t_name
          | Some oc ->
              let m = oc.Serve.oc_metrics in
              st.ticks <- st.ticks + Metrics.ticks m;
              st.exec_ms <- st.exec_ms +. Metrics.exec_ms m;
              st.occupancy <- st.occupancy +. Metrics.mean_occupancy m;
              let done_ = oc.Serve.oc_completed in
              first
                [
                  (fun () ->
                    if List.length done_ <> t.t_requests then
                      fail "%s: %d of %d requests completed" t.t_name
                        (List.length done_) t.t_requests
                    else None);
                  (fun () ->
                    let bad = Serve.mismatches done_ solo + Serve.mismatches solo done_ in
                    if bad > 0 then
                      fail "%s: %d requests differ from serving them alone" t.t_name bad
                    else None);
                  (fun () ->
                    (* Request.emissions stays empty (the scheduler
                       never records per-token emissions), so token
                       counts are read from the position and the
                       tick metrics *)
                    match
                      List.find_opt
                        (fun r ->
                          r.Request.rq_pos <> r.Request.rq_len
                          || r.Request.rq_status <> Request.Done)
                        done_
                    with
                    | Some r ->
                        fail "%s: request %d advanced %d of %d tokens" t.t_name
                          r.Request.rq_id r.Request.rq_pos r.Request.rq_len
                    | None ->
                        if Metrics.tokens m <> t.t_requests * t.t_len then
                          fail "%s: %d tokens served, %d requested" t.t_name
                            (Metrics.tokens m) (t.t_requests * t.t_len)
                        else None);
                ]
        in
        (t, run, check, st))
      tenants
  in
  let run () = List.iter (fun (_, run, _, _) -> run ()) per_tenant in
  let check () =
    List.fold_left
      (fun acc (_, _, check, _) ->
        let r = check () in
        match acc with Some _ -> acc | None -> r)
      None per_tenant
  in
  let tokens =
    List.fold_left (fun a t -> a + (t.t_requests * t.t_len)) 0 tenants
  in
  let op = { label = "serve"; run; check; work = float_of_int tokens } in
  (* the warm-up op *)
  op.run ();
  Option.iter failwith (op.check ());
  List.iter (fun (_, _, _, st) -> st.ticks <- 0; st.exec_ms <- 0.; st.occupancy <- 0.)
    per_tenant;
  let layers ~ops ~self_ms =
    let per x = x /. float_of_int ops in
    ("codegen.prepare_ms", !prepare_ms)
    :: List.concat_map
         (fun (t, _, _, st) ->
           let n = t.t_name in
           let wall = self_ms ("serve." ^ n) in
           [
             ("serve.tick_ms." ^ n, wall /. float_of_int (max 1 st.ticks));
             ("serve.exec_ms." ^ n, per st.exec_ms);
             ("serve.overhead_ms." ^ n, per (wall -. st.exec_ms));
             ("serve.ticks." ^ n, per (float_of_int st.ticks));
             ("serve.mean_occupancy." ^ n, per st.occupancy);
           ])
         per_tenant
  in
  { ops = [| op |]; layers }
