(* Shared helpers: clock, order statistics, process memory, the metric
   list every workload returns, and the in-memory span recorder of the
   traced run. *)

module Obs = Raceguard_obs

let now = Unix.gettimeofday

(* Linear interpolation between closest ranks (numpy's default). *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    if i >= n - 1 then a.(n - 1) else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5

(* The mean of the items whose rank lies within n/40 of the [q] rank.
   Item latencies cluster by item type (eight test cases on sip-detect),
   and a plain percentile that falls between two clusters reads the
   largest item of one or the smallest of the next: on sip-detect the
   plain p50 spread by 0.17 over five runs, against 0.03 for p90. *)
let smoothed_quantile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else
    let h = max 1 (n / 40) and c = int_of_float (Float.round (q *. float_of_int (n - 1))) in
    let lo = max 0 (c - h) and hi = min (n - 1) (c + h) in
    let sum = ref 0. in
    for i = lo to hi do
      sum := !sum +. a.(i)
    done;
    !sum /. float_of_int (hi - lo + 1)

let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

(* Peak resident set of this process (VmHWM), in MiB, since it started
   or since the last [reset_peak_rss]. *)
let peak_rss_mb () =
  let status = In_channel.with_open_text "/proc/self/status" In_channel.input_all in
  let kb =
    String.split_on_char '\n' status
    |> List.find_map (fun line ->
           match String.split_on_char ':' line with
           | [ "VmHWM"; v ] -> Scanf.sscanf v " %d kB" Option.some
           | _ -> None)
  in
  match kb with Some kb -> fi kb /. 1024. | None -> failwith "VmHWM missing from /proc/self/status"

(* Lower the peak to the current resident set (Linux "clear_refs" 5), so
   that each block reports its own peak. *)
let reset_peak_rss () =
  try Out_channel.with_open_text "/proc/self/clear_refs" (fun oc -> output_string oc "5")
  with Sys_error e -> Printf.eprintf "perfbench: peak RSS not reset (%s)\n%!" e

let counter snap name = Option.value ~default:0 (Obs.Metrics.find_counter snap name)

(* Run [f] and return its result, its wall time and the minor words it
   allocated on this domain. *)
let timed f =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let v = f () in
  let t1 = now () in
  (v, t1 -. t0, Gc.minor_words () -. w0)

(* --- metrics -------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* The outcome of one end-to-end or traced run. *)
type outcome = {
  attempted : int;
  failed : int;
  correct : bool;  (** no failed item and every whole-run check held *)
  metrics : metric list;
}

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_line o =
  let metric x =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_number x.value) x.unit_
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    o.correct o.attempted o.failed
    (String.concat ", " (List.map metric o.metrics))

(* --- item accounting ------------------------------------------------ *)

(* Item count, deviation count, and the latencies of the current block. *)
type items = { mutable lat_ms : float list; mutable n : int; mutable bad : int }

let items () = { lat_ms = []; n = 0; bad = 0 }

let record it ~ok seconds =
  it.lat_ms <- (seconds *. 1000.) :: it.lat_ms;
  it.n <- it.n + 1;
  if not ok then it.bad <- it.bad + 1

(* --- host speed ------------------------------------------------------- *)

(* The host shares its CPUs with other machines.  In its busy spells,
   which last from seconds to minutes, allocation-heavy code such as the
   VM runs up to 80% slower, while the same input gives the same work.
   A fixed kernel that allocates like the workloads, and shares no code
   with them, is timed around every block; the block's timings are
   divided by [host_slowdown], derived from the kernel's time over its
   reference time, so they read as if the host ran at its reference
   speed, even when a spell covers a whole run.  The kernel runs only
   between blocks, while the workload is idle. *)
type kernel_record = { k_index : int; k_key : int; k_tag : string }

let kernel () =
  let table = Hashtbl.create 256 in
  let acc = ref 0 in
  for r = 1 to 12 do
    List.iter
      (fun x ->
        Hashtbl.replace table (x.k_key land 1023) x;
        acc := !acc + x.k_index)
      (List.init 1000 (fun i -> { k_index = i; k_key = i * r; k_tag = "k" }));
    acc := !acc + Hashtbl.length table
  done;
  ignore (Sys.opaque_identity !acc)

(* The kernel's time, on a collected heap, on an idle 2-vCPU VM at 2.1 GHz. *)
let kernel_reference_s = 0.00075
let kernel_reps = 16
let kernel_samples = 7

(* The workloads feel a spell more than the kernel does: in spells where
   the kernel ran 1.5× slower, sip-detect ran 1.78× and chaos-grid 1.8×
   slower (1.5 ** 1.42, 1.5 ** 1.45), so the slowdown is the kernel's
   ratio to this power. *)
let sensitivity = 1.4

(* The kernel starts on a collected heap: otherwise its allocations pay
   for part of a major cycle over whatever heap the workload left, and
   its time moved by up to 30% between two calls a block apart.  The
   ratio is the median of several short samples: one long sample read
   up to 1.9 in a spike of a few milliseconds, while the blocks around
   it, seconds long, ran at their usual rate. *)
let host_slowdown () =
  Gc.full_major ();
  let sample () =
    let (), s, _ =
      timed (fun () ->
          for _ = 1 to kernel_reps do
            kernel ()
          done)
    in
    s /. fi kernel_reps /. kernel_reference_s
  in
  median (List.init kernel_samples (fun _ -> sample ())) ** sensitivity

(* The timed phase: a closed loop of blocks for [seconds]; a block
   starts only if, at the pace of the one before, it ends in time, so
   that the phase does not run a block's length over.  [block it] runs
   a fixed batch of items, records them into [it] and returns the VM
   events it processed.  Each block yields the host
   slowdown around it, its event rate, its item latencies and its peak
   resident set; the run reports medians over blocks rather than one
   figure over the whole phase, which keeps short spells out as well,
   and latency percentiles over all its items, each scaled by its
   block's slowdown. *)
let timed_phase ~seconds block =
  let it = items () in
  let blocks = ref [] in
  let t0 = now () and last = ref 0. in
  while now () -. t0 +. !last < seconds || !blocks = [] do
    let b0 = now () in
    it.lat_ms <- [];
    let before = host_slowdown () in
    reset_peak_rss ();
    let events, wall, _ = timed (fun () -> block it) in
    let rss = peak_rss_mb () in
    let after = host_slowdown () in
    let slowdown = (before +. after) /. 2. in
    Printf.eprintf "perfbench: block %d: %.4g s, raw events_per_s %.6g, host slowdown %.3f then %.3f, peak RSS %.1f MiB\n%!"
      (List.length !blocks) wall (fi events /. wall) before after rss;
    blocks := (slowdown, fi events /. wall, it.lat_ms, rss) :: !blocks;
    last := now () -. b0
  done;
  (it, !blocks)

(* The end-to-end metrics, in BENCHMARK.json order, scaled to the
   reference host speed; the raw figures go to standard error.  The
   failure fraction is carried by the result's [attempted]/[failed]
   keys. *)
let end_to_end (setup_s, raw_setup_s) (it, blocks) =
  let per_block f = median (List.map f blocks) in
  let rate (_, r, _, _) = r and scaled_rate (s, r, _, _) = r *. s in
  let raw = List.concat_map (fun (_, _, l, _) -> l) blocks in
  let scaled = List.concat_map (fun (s, _, l, _) -> List.map (fun x -> x /. s) l) blocks in
  Printf.eprintf
    "perfbench: raw: events_per_s %.6g, item_ms_p50 %.4g, item_ms_p90 %.4g, setup_s %.4g; host slowdown %.3f\n%!"
    (per_block rate) (smoothed_quantile raw 0.5) (smoothed_quantile raw 0.9) raw_setup_s
    (per_block (fun (s, _, _, _) -> s));
  {
    attempted = it.n;
    failed = it.bad;
    correct = it.bad = 0;
    metrics =
      [
        m "events_per_s" "1/s" (per_block scaled_rate);
        m "item_ms_p50" "ms" (smoothed_quantile scaled 0.5);
        m "item_ms_p90" "ms" (smoothed_quantile scaled 0.9);
        m "peak_rss_mb" "MiB" (per_block (fun (_, _, _, rss) -> rss));
        m "setup_s" "s" setup_s;
      ];
  }

(* Set up [reps] times and keep the last state; return it with the
   median set-up time, each scaled by the host slowdown measured just
   before it, and the median raw time. *)
let repeated_setup reps f =
  let times = ref [] and state = ref None in
  for _ = 1 to reps do
    let slowdown = host_slowdown () in
    let v, dt, _ = timed f in
    times := (dt /. slowdown, dt) :: !times;
    state := Some v
  done;
  (Option.get !state, (median (List.map fst !times), median (List.map snd !times)))

(* --- spans (traced run only) ---------------------------------------- *)

module Span = struct
  type t = {
    id : int;
    parent : int;  (** -1 at the root *)
    name : string;
    item : int;  (** -1 when the span covers no single item *)
    domain : int;
    start : float;
    stop : float;
  }

  let enabled = ref false
  let next_id = Atomic.make 0
  let recorded : t list Atomic.t = Atomic.make []
  let current = Domain.DLS.new_key (fun () -> -1)

  let rec push s =
    let cur = Atomic.get recorded in
    if not (Atomic.compare_and_set recorded cur (s :: cur)) then push s

  (* The innermost open span on this domain, -1 outside any span. *)
  let current_id () = Domain.DLS.get current

  (* [with_ name f] runs [f] inside a span when tracing is on.  The
     parent is the innermost open span on this domain unless [parent]
     names one opened on another domain. *)
  let with_ ?(item = -1) ?parent name f =
    if not !enabled then f ()
    else begin
      let id = Atomic.fetch_and_add next_id 1 in
      let parent = match parent with Some p -> p | None -> Domain.DLS.get current in
      Domain.DLS.set current id;
      let start = now () in
      let finish () =
        push
          { id; parent; name; item; domain = (Domain.self () :> int); start; stop = now () };
        Domain.DLS.set current parent
      in
      match f () with
      | v ->
          finish ();
          v
      | exception e ->
          finish ();
          raise e
    end

  let all () = List.rev (Atomic.get recorded)

  (* The part of [s]'s interval that the union of [children] covers;
     children on two domains overlap in time. *)
  let covered s children =
    let ivs =
      List.sort compare (List.map (fun c -> (Float.max c.start s.start, Float.min c.stop s.stop)) children)
    in
    fst
      (List.fold_left
         (fun (acc, reach) (a, b) ->
           let a = Float.max a reach in
           if b > a then (acc +. (b -. a), b) else (acc, reach))
         (0., Float.neg_infinity) ivs)

  (* Per span name: count, total time, and self time (duration minus
     the part of it that its direct children cover). *)
  let self_times spans =
    let children = Hashtbl.create 64 in
    List.iter
      (fun s ->
        if s.parent >= 0 then
          Hashtbl.replace children s.parent
            (s :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
      spans;
    let by_name = Hashtbl.create 16 in
    List.iter
      (fun s ->
        let dur = s.stop -. s.start in
        let self = dur -. covered s (Option.value ~default:[] (Hashtbl.find_opt children s.id)) in
        let n, tot, sf = Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt by_name s.name) in
        Hashtbl.replace by_name s.name (n + 1, tot +. dur, sf +. self))
      spans;
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name [] |> List.sort compare

  let write ~path ~workload ~seed spans =
    let module J = Obs.Json in
    let t0 = List.fold_left (fun acc s -> Float.min acc s.start) Float.infinity spans in
    let span_json s =
      J.Obj
        [
          ("id", J.int s.id);
          ("parent", J.int s.parent);
          ("name", J.Str s.name);
          ("item", J.int s.item);
          ("domain", J.int s.domain);
          ("start_s", J.Num (s.start -. t0));
          ("end_s", J.Num (s.stop -. t0));
        ]
    in
    let doc =
      J.Obj
        [
          ("schema", J.Str "perfbench-spans/1");
          ("workload", J.Str workload);
          ("seed", J.int seed);
          ( "self_time",
            J.Obj
              (List.map
                 (fun (name, (n, tot, self)) ->
                   (name, J.Obj [ ("count", J.int n); ("total_s", J.Num tot); ("self_s", J.Num self) ]))
                 (self_times spans)) );
          ("spans", J.List (List.map span_json spans));
        ]
    in
    Out_channel.with_open_text path (fun oc -> output_string oc (J.to_string doc))
end
