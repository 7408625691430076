(* Span recorder for the traced run.  The benchmark wraps each call
   into a layer's public functions in [span name f]; with tracing off
   that is a single branch.  Spans are kept in memory: name, start,
   end, parent span and op id.  A layer's self time is its span's
   duration minus the part its child spans cover. *)

type span = {
  id : int;
  name : string;
  op : int;
  parent : int;  (** -1 for a root span *)
  t0 : float;  (** seconds *)
  mutable t1 : float;
  mutable child_s : float;  (** time covered by direct children *)
}

let enabled = ref false
let cur_op = ref (-1)
let stack : span list ref = ref []
let recorded : span list ref = ref []
let next_id = ref 0

let span name f =
  if not !enabled then f ()
  else begin
    let parent = match !stack with s :: _ -> s.id | [] -> -1 in
    let s =
      { id = !next_id; name; op = !cur_op; parent;
        t0 = Unix.gettimeofday (); t1 = 0.; child_s = 0. }
    in
    incr next_id;
    stack := s :: !stack;
    Fun.protect f ~finally:(fun () ->
        s.t1 <- Unix.gettimeofday ();
        stack := List.tl !stack;
        (match !stack with
        | p :: _ -> p.child_s <- p.child_s +. (s.t1 -. s.t0)
        | [] -> ());
        recorded := s :: !recorded)
  end

let self_s s = s.t1 -. s.t0 -. s.child_s

(* Total self time per span name, in ms. *)
let self_totals () =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let v = Option.value (Hashtbl.find_opt tbl s.name) ~default:0. in
      Hashtbl.replace tbl s.name (v +. (self_s s *. 1e3)))
    !recorded;
  tbl

(* Chrome trace of every span, rendered through the repo's own trace
   store and checked with its RFC-8259 validator. *)
let to_chrome () =
  let sink = Trace.make () in
  let origin =
    List.fold_left (fun m s -> Float.min m s.t0) infinity !recorded
  in
  List.iter
    (fun s ->
      let cat =
        match String.index_opt s.name '.' with
        | Some i -> String.sub s.name 0 i
        | None -> s.name
      in
      Trace.add_span sink s.name ~track:"perfbench" ~cat
        ~ts_us:((s.t0 -. origin) *. 1e6)
        ~dur_us:((s.t1 -. s.t0) *. 1e6)
        ~args:
          [ ("op", Trace.Int s.op); ("id", Trace.Int s.id);
            ("parent", Trace.Int s.parent) ])
    (List.rev !recorded);
  let doc = Trace.to_chrome sink in
  match Jsonw.validate doc with
  | Ok () -> Ok doc
  | Error e -> Error e
