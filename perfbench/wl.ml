(* What every workload hands the timed loop in [main.ml]. *)

type op = {
  label : string;  (** names the op in failure messages *)
  run : unit -> unit;  (** the timed part *)
  check : unit -> string option;
      (** after timing: [None] when the op's outputs are correct *)
  work : float;  (** work units ([work_per_s]) one op completes *)
}

type t = {
  ops : op array;  (** one round; a run attempts whole rounds *)
  layers : ops:int -> self_ms:(string -> float) -> (string * float) list;
      (** traced run: per-layer metrics, given the number of timed ops
          and the total self time of the spans of each name *)
}

(* One OCaml domain, no shadow recording, whatever the environment
   says: the ambient pool sizes itself to the host's cores, and idle
   domains tax every minor collection of the one doing the work. *)
let opts =
  { Run_opts.default with Run_opts.domains = Some 1; shadow = Run_opts.Shadow_off }

(* Is this a traced run?  Set before set-up; [Spans.enabled] turns on
   only once set-up is over. *)
let traced = ref false

let now = Unix.gettimeofday
let span = Spans.span

let fail fmt = Printf.ksprintf (fun s -> Some s) fmt

(* First failing check, in order. *)
let first checks =
  List.fold_left
    (fun acc c -> match acc with Some _ -> acc | None -> c ())
    None checks

(* A seed-dependent, reproducible stream per input set. *)
let rng ~seed k = Rng.create ((seed * 1_000_003) + (7919 * k) + 17)
