(** Metrics registry: named counters and gauges.

    Design constraints, in order:

    - The hot path (detector per-access code, VM event dispatch) must
      stay trivial — one domain-local array store per increment, no
      hashing, no allocation.  Handles are created once (registration
      checks the name and assigns a slot) and updated through that
      slot.
    - Since the multicore pool ([lib/par/]) runs independent cells on
      several domains at once, every instrument's {e state} is
      domain-local: a handle names a slot, and each domain lazily
      materialises its own slot array via [Domain.DLS].  A cell's
      [snapshot]/[diff] therefore sees exactly the work its own domain
      did — no cross-domain interference, no locks on the hot path —
      and per-cell snapshots combine with {!merge}.
    - Runs happen back-to-back in one process (bench rows, the runner's
      multi-config sweeps), so consumers need per-run deltas from
      domain-global counters: [snapshot] + [diff].
    - Merging snapshots from independent runs must be associative and
      commutative so aggregation order can't change results (tested by
      qcheck in [test/test_obs.ml]): counters add; gauges keep the max.

    Counters and gauges are one instrument record and share one slot
    table; an instrument's kind decides only how {!merge} and {!diff}
    treat its value. *)

type kind = Counter | Gauge

type instrument = { name : string; slot : int; kind : kind; reg : registry }

and registry = {
  mutable instruments : instrument list;  (** newest first; the names are unique *)
  mutable n_slots : int;  (** slots assigned so far *)
  cells : int array Domain.DLS.key;  (** this domain's values by slot *)
  reg_lock : Mutex.t;  (* registration only; never on the hot path *)
}

type counter = instrument
type gauge = instrument

let create () =
  {
    instruments = [];
    n_slots = 0;
    cells = Domain.DLS.new_key (fun () -> [||]);
    reg_lock = Mutex.create ();
  }

(* One process-wide registry (with per-domain state).  Library code
   registers its instruments here at module-init or first use;
   consumers take before/after snapshots and [diff] them. *)
let default = create ()

let register kind registry name =
  Mutex.protect registry.reg_lock @@ fun () ->
  if List.exists (fun i -> i.name = name) registry.instruments then
    invalid_arg (Printf.sprintf "Obs.Metrics: duplicate instrument %S" name);
  let i = { name; slot = registry.n_slots; kind; reg = registry } in
  registry.n_slots <- registry.n_slots + 1;
  registry.instruments <- i :: registry.instruments;
  i

let counter ?(registry = default) name = register Counter registry name
let gauge ?(registry = default) name = register Gauge registry name

(* This domain's slot array, grown if instruments were registered after
   the array was created (registration happens at module init, so
   growth is once-per-domain cold path at worst). *)
let cells i =
  let a = Domain.DLS.get i.reg.cells in
  if i.slot < Array.length a then a
  else begin
    let a' = Array.make (max i.reg.n_slots (Array.length a * 2)) 0 in
    Array.blit a 0 a' 0 (Array.length a);
    Domain.DLS.set i.reg.cells a';
    a'
  end

let value i = (cells i).(i.slot)

let incr c =
  let a = cells c in
  a.(c.slot) <- a.(c.slot) + 1

let add c n =
  let a = cells c in
  a.(c.slot) <- a.(c.slot) + n

let set g v =
  let a = cells g in
  a.(g.slot) <- v

let gauge_value = value

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type snapshot = { s_counters : (string * int) list; s_gauges : (string * int) list }

let by_name (a, _) (b, _) = String.compare a b

let snapshot ?(registry = default) () =
  let of_kind k =
    List.sort by_name
      (List.filter_map
         (fun i -> if i.kind = k then Some (i.name, value i) else None)
         registry.instruments)
  in
  { s_counters = of_kind Counter; s_gauges = of_kind Gauge }

let empty = { s_counters = []; s_gauges = [] }

(* Merge two sorted assoc lists with a per-value combiner; names in
   either side survive.  Keeping the result sorted keeps merge
   associative/commutative structurally. *)
let rec merge_assoc f xs ys =
  match (xs, ys) with
  | [], l | l, [] -> l
  | (kx, vx) :: xs', (ky, vy) :: ys' ->
      let c = String.compare kx ky in
      if c = 0 then (kx, f vx vy) :: merge_assoc f xs' ys'
      else if c < 0 then (kx, vx) :: merge_assoc f xs' ys
      else (ky, vy) :: merge_assoc f xs ys'

let merge a b =
  {
    s_counters = merge_assoc ( + ) a.s_counters b.s_counters;
    s_gauges = merge_assoc max a.s_gauges b.s_gauges;
  }

(* [diff ~before after]: per-run delta.  Counters subtract (clamped at
   0 in case an instrument was registered between the snapshots);
   gauges keep the [after] level — a gauge is a level, not a rate. *)
let diff ~before after =
  let sub_c name v = v - (match List.assoc_opt name before.s_counters with Some b -> b | None -> 0) in
  {
    s_counters = List.map (fun (k, v) -> (k, max 0 (sub_c k v))) after.s_counters;
    s_gauges = after.s_gauges;
  }

let find_counter s name = List.assoc_opt name s.s_counters
let find_gauge s name = List.assoc_opt name s.s_gauges

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

let to_json s =
  Json.Obj
    [
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.int v)) s.s_counters));
      ("gauges", Json.Obj (List.map (fun (k, v) -> (k, Json.int v)) s.s_gauges));
    ]

let pp ppf s =
  let non_zero = List.filter (fun (_, v) -> v <> 0) in
  Fmt.pf ppf "@[<v>";
  List.iter (fun (k, v) -> Fmt.pf ppf "%-44s %d@," k v) (non_zero s.s_counters);
  List.iter (fun (k, v) -> Fmt.pf ppf "%-44s %d@," k v) (non_zero s.s_gauges);
  Fmt.pf ppf "@]"
