(* Host-speed probe.  This VM's speed swings by up to 1.5x between
   runs a minute apart and by more within seconds, so every timed op is
   set against a fixed amount of the benchmark's own work measured right
   beside it.  The probe has two parts:

   - compute: a naive 96x96 float matmul, four times over — loads and
     multiply-adds out of L1/L2, the shape of the engine's own kernels;
   - memory: a dependent pointer chase through a random single cycle
     over a buffer larger than the last-level cache (128 MiB).

   The hop count fixes the mix: on this host the memory part is about a
   sixth of the probe (see README.md for why not more).  Buffers are
   built once by [create]; the timed parts allocate nothing and use
   none of the repo's libraries, so no change to the program (its GC
   settings included) can move them.  The chase buffer is a bigarray,
   outside the OCaml heap, so the measured program's collections never
   scan it. *)

let n = 96
let gemm_reps = 4
let far_len = 1 lsl 24 (* 16 Mi ints = 128 MiB *)
let far_hops = 3_750

type ring = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  a : float array;
  b : float array;
  c : float array;
  far : ring;
  pos : int array;  (** where the chase stopped *)
}

(* Sattolo's algorithm: a uniformly random single cycle, so the chase
   never falls into a short loop. *)
let cycle len : ring =
  let ring = Bigarray.Array1.create Bigarray.int Bigarray.c_layout len in
  for i = 0 to len - 1 do
    ring.{i} <- i
  done;
  let st = Random.State.make [| 1 |] in
  for i = len - 1 downto 1 do
    let j = Random.State.int st i in
    let t = ring.{i} in
    ring.{i} <- ring.{j};
    ring.{j} <- t
  done;
  ring

(* Bytes the chase buffer holds resident. *)
let footprint_bytes = far_len * 8

let create () =
  let st = Random.State.make [| 0x5eed |] in
  let m () = Array.init (n * n) (fun _ -> Random.State.float st 1.0 -. 0.5) in
  { a = m (); b = m (); c = Array.make (n * n) 0.; far = cycle far_len;
    pos = [| 0 |] }

let gemm t =
  let a = t.a and b = t.b and c = t.c in
  for _ = 1 to gemm_reps do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        let acc = ref 0. in
        for k = 0 to n - 1 do
          acc :=
            !acc
            +. (Array.unsafe_get a ((i * n) + k) *. Array.unsafe_get b ((k * n) + j))
        done;
        Array.unsafe_set c ((i * n) + j) !acc
      done
    done
  done

let chase t =
  let far = t.far in
  let p = ref (Array.unsafe_get t.pos 0) in
  for _ = 1 to far_hops do
    p := Bigarray.Array1.unsafe_get far !p
  done;
  Array.unsafe_set t.pos 0 !p

(* One probe, in ms. *)
let run t =
  let t0 = Unix.gettimeofday () in
  gemm t;
  chase t;
  (Unix.gettimeofday () -. t0) *. 1e3

(* The host's scalar floating-point peak, for the roofline: eight
   independent multiply-add chains held in registers.  Not part of the
   probe; the traced run measures it beside every op. *)
let peak_iters = 500_000

let fma_chains t =
  let m = 0.999_999_9 and c = 1e-7 in
  let a0 = ref 1.0 and a1 = ref 1.1 and a2 = ref 1.2 and a3 = ref 1.3 in
  let a4 = ref 1.4 and a5 = ref 1.5 and a6 = ref 1.6 and a7 = ref 1.7 in
  for _ = 1 to peak_iters do
    a0 := (!a0 *. m) +. c;
    a1 := (!a1 *. m) +. c;
    a2 := (!a2 *. m) +. c;
    a3 := (!a3 *. m) +. c;
    a4 := (!a4 *. m) +. c;
    a5 := (!a5 *. m) +. c;
    a6 := (!a6 *. m) +. c;
    a7 := (!a7 *. m) +. c
  done;
  Array.unsafe_set t.c 0 (!a0 +. !a1 +. !a2 +. !a3 +. !a4 +. !a5 +. !a6 +. !a7)

let peak_gflops t =
  let t0 = Unix.gettimeofday () in
  fma_chains t;
  16. *. float_of_int peak_iters /. ((Unix.gettimeofday () -. t0) *. 1e9)

(* The reference host: one on which the probe takes [ref_ms].  Times in
   the end-to-end table are scaled to it, op by op, with the probes on
   either side of the op. *)
let ref_ms = 8.0
