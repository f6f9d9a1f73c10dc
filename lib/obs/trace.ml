(** Fixed-capacity ring-buffer event tracer with Chrome
    [trace_event]-JSON export.

    The VM's tracer tool ([Vm.Tool.tracer]) and the detectors call
    [emit] on their hot paths, so the tracer must be cheap when
    disabled and bounded when enabled:

    - Without a tracer the VM runs no tracing code (the tool is not
      attached), and a detector's [None] tracer costs one physical
      comparison at each site.
    - An enabled tracer samples 1-in-[sample] events with a plain
      counter — deterministic, so two runs over the same event stream
      trace the same records — and overwrites the oldest record once
      [capacity] is reached (the ring remembers the *tail* of the run,
      which is where crashes and warnings live).

    Records are deliberately generic (ts/tid/name/cat/args): this
    library sits below [lib/vm], so the VM's tracer tool maps each
    [Event.t] to strings itself.  Timestamps are VM logical clock ticks, exported as
    microseconds so chrome://tracing renders them on a sensible axis. *)

type record = {
  ts : int; (* VM logical clock *)
  tid : int;
  name : string;
  cat : string;
  args : (string * Json.t) list;
}

type t = {
  ring : record option array;
  capacity : int;
  sample : int;
  mutable tick : int; (* events offered, for sampling *)
  mutable next : int; (* next write slot *)
  mutable recorded : int; (* total records written (>= capacity once wrapped) *)
}

let create ?(capacity = 4096) ?(sample = 1) () =
  if capacity <= 0 then invalid_arg "Obs.Trace.create: capacity must be positive";
  if sample <= 0 then invalid_arg "Obs.Trace.create: sample must be positive";
  { ring = Array.make capacity None; capacity; sample; tick = 0; next = 0; recorded = 0 }

let emit t ~ts ~tid ~name ~cat ?(args = []) () =
  let n = t.tick in
  t.tick <- n + 1;
  if n mod t.sample = 0 then begin
    t.ring.(t.next) <- Some { ts; tid; name; cat; args };
    t.next <- (t.next + 1) mod t.capacity;
    t.recorded <- t.recorded + 1
  end

let offered t = t.tick
let recorded t = t.recorded
let dropped t = max 0 (t.recorded - t.capacity)

(* Oldest-first: once wrapped, the oldest live record sits at [next].
   The final stable sort guarantees monotonic timestamps to consumers
   (chrome://tracing silently misrenders out-of-order instants) even if
   the slot walk and the emit order ever disagree; on the already-sorted
   common case it is a single O(n) pass. *)
let records t =
  let out = ref [] in
  let start = if t.recorded >= t.capacity then t.next else 0 in
  for k = t.capacity - 1 downto 0 do
    match t.ring.((start + k) mod t.capacity) with
    | Some r -> out := r :: !out
    | None -> ()
  done;
  List.stable_sort (fun a b -> compare a.ts b.ts) !out

let record_to_json r =
  Json.Obj
    ([
       ("name", Json.Str r.name);
       ("cat", Json.Str r.cat);
       ("ph", Json.Str "i"); (* instant event *)
       ("s", Json.Str "t"); (* thread-scoped *)
       ("ts", Json.int r.ts);
       ("pid", Json.int 1);
       ("tid", Json.int r.tid);
     ]
    @ if r.args = [] then [] else [ ("args", Json.Obj r.args) ])

let to_json t =
  Json.Obj
    [
      ("traceEvents", Json.List (List.map record_to_json (records t)));
      ("displayTimeUnit", Json.Str "ms");
      ( "otherData",
        Json.Obj
          [
            ("generator", Json.Str "raceguard");
            ("sample", Json.int t.sample);
            ("offered", Json.int t.tick);
            ("recorded", Json.int t.recorded);
            ("dropped", Json.int (dropped t));
          ] );
    ]

let to_string t = Json.to_string ~indent:1 (to_json t)
