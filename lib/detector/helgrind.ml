(** The Helgrind-style lock-set race detector.

    Implements the Eraser algorithm with the per-location state machine
    of Figure 1 (New / Exclusive / Shared-RO / Shared-Modified), the
    VisualThreads thread-segment refinement (Figure 2), and the two
    improvements contributed by the paper:

    - {b HWLC} ([bus_model = Rw_lock]): the x86 bus lock is modelled as
      a read-write lock implicitly held for reading by {e every} read
      access and held for writing by [LOCK]-prefixed writes, instead of
      the original plain mutex held only around [LOCK]-prefixed
      instructions.  This removes the spurious reports on bus-locked
      reference counters (Figures 8/9) while still flagging plain
      writes that race with them.  Supporting it required read-write
      lock-sets (reads check locks held in {e any} mode, writes check
      locks held in {e write} mode), which also gives POSIX rw-lock
      support ([track_rwlocks]) "for free", as the paper notes.

    - {b DR} ([destructor_annotations]): honour the
      [VALGRIND_HG_DESTRUCT] client request emitted by annotated
      [delete] operators (Figure 4): the object's memory becomes
      exclusively owned by the deleting thread's current segment, so
      the vptr writes performed by the destructor chain of a derived
      class no longer look like unsynchronised writes to shared memory
      — while a genuine access by another thread during destruction is
      still detected.

    Setting [eraser_states = false] disables the state machine and
    runs the naive textbook Eraser (lock-set refined from the very
    first access, warnings whenever it empties) — the configuration the
    paper calls "too many false positives" for initialisation and
    read-shared data.

    {b Hot path.}  Lock-sets are hash-consed ({!Lockset}), the
    per-thread effective sets are maintained incrementally on
    acquire/release ({!Held_locks}), and each shadow word remembers the
    thread / segment / lock-sets of its last access: when nothing
    relevant changed since, the state-machine step is provably a no-op
    (it cannot warn and rewrites the state with an identical value), so
    [fast_path] short-circuits it.  Reports are byte-identical with the
    fast path on or off. *)

module Loc = Raceguard_util.Loc
module Vm = Raceguard_vm
module Metrics = Raceguard_obs.Metrics
module Trace = Raceguard_obs.Trace
open Vm.Event

(* Process-global instruments (one registration per process); the
   per-instance [accesses_checked]/[fast_hits] counters below remain
   for per-detector introspection, these aggregate across instances. *)
let m_accesses = Metrics.counter "detector.helgrind.accesses_checked"
let m_fast_hits = Metrics.counter "detector.helgrind.fast_path_hits"
let m_transitions = Metrics.counter "detector.helgrind.state_transitions"
let m_warnings = Metrics.counter "detector.helgrind.warnings"

type bus_model =
  | Locked_mutex  (** original Helgrind: a mutex around LOCK-prefixed ops *)
  | Rw_lock  (** the paper's corrected model *)

type config = {
  bus_model : bus_model;
  destructor_annotations : bool;
  thread_segments : bool;
  track_rwlocks : bool;
      (** understand POSIX rw-lock events; the original Helgrind did not *)
  eraser_states : bool;  (** Figure 1 state machine (vs. pure Eraser) *)
  report_reads : bool;  (** also report reads with empty lock-set *)
  hb_annotations : bool;
      (** honour HAPPENS_BEFORE/AFTER client requests: the paper's §5
          future work ("higher level constructs for synchronization
          that the lock-set algorithm is unaware of"), implemented as
          annotation-induced thread-segment edges *)
  fast_path : bool;
      (** short-circuit the state machine when a word's steady state
          provably cannot change or warn; never alters reports *)
  provenance : bool;
      (** record the shadow-state transition history of every word and
          attach it to warnings as {!Report.provenance}.  History is
          only appended on {e genuine} state changes — exactly the
          steps the fast path cannot skip — so it is byte-identical
          with [fast_path] on or off. *)
}

(** The three configurations evaluated in Figures 5/6. *)
let original =
  {
    bus_model = Locked_mutex;
    destructor_annotations = false;
    thread_segments = true;
    track_rwlocks = false;
    eraser_states = true;
    report_reads = true;
    hb_annotations = false;
    fast_path = true;
    provenance = false;
  }

let hwlc = { original with bus_model = Rw_lock; track_rwlocks = true }
let hwlc_dr = { hwlc with destructor_annotations = true }

(** The §5 extension on top of the paper's final configuration. *)
let hwlc_dr_hb = { hwlc_dr with hb_annotations = true }

(** Ablation: Eraser without the state machine. *)
let pure_eraser = { original with eraser_states = false }

let pp_config_name ppf c =
  let base =
    match (c.bus_model, c.destructor_annotations) with
    | Locked_mutex, false -> "Original"
    | Locked_mutex, true -> "Original+DR"
    | Rw_lock, false -> "HWLC"
    | Rw_lock, true -> "HWLC+DR"
  in
  let base = if c.eraser_states then base else base ^ "(pure)" in
  let base = if c.thread_segments then base else base ^ "-noTS" in
  let base = if c.hb_annotations then base ^ "+HB" else base in
  Fmt.string ppf base

(** Full config echo for machine-readable outputs (bench rows, explain
    JSON) — every knob, not just the derived display name. *)
let config_to_json c =
  let module J = Raceguard_obs.Json in
  J.Obj
    [
      ("name", J.Str (Fmt.str "%a" pp_config_name c));
      ( "bus_model",
        J.Str (match c.bus_model with Locked_mutex -> "locked_mutex" | Rw_lock -> "rw_lock") );
      ("destructor_annotations", J.Bool c.destructor_annotations);
      ("thread_segments", J.Bool c.thread_segments);
      ("track_rwlocks", J.Bool c.track_rwlocks);
      ("eraser_states", J.Bool c.eraser_states);
      ("report_reads", J.Bool c.report_reads);
      ("hb_annotations", J.Bool c.hb_annotations);
      ("fast_path", J.Bool c.fast_path);
      ("provenance", J.Bool c.provenance);
    ]

(* ------------------------------------------------------------------ *)
(* Shadow state                                                        *)
(* ------------------------------------------------------------------ *)

type owner = { o_tid : int; o_seg : Segments.seg }

type state =
  | Virgin
  | Exclusive of owner
  | Shared_ro of Lockset.t
  | Shared_mod of Lockset.t

let pp_state ~name_of ppf = function
  | Virgin -> Fmt.string ppf "virgin"
  | Exclusive o -> Fmt.pf ppf "exclusive (thread %d)" o.o_tid
  | Shared_ro ls -> Fmt.pf ppf "shared RO, %a" (Lockset.pp ~name_of) ls
  | Shared_mod ls -> Fmt.pf ppf "shared modified, %a" (Lockset.pp ~name_of) ls

type cell = {
  mutable st : state;
  (* fast-path stamp: the interned effective sets the last slow-path
     access applied (physical equality suffices — sets are interned).
     Thread-agnostic on purpose: the Shared transitions never look at
     the accessing thread, and under contention different threads
     holding the same lock produce the same interned sets.
     [f_any = Lockset.top] invalidates the stamp (an effective set is
     never ⊤). *)
  mutable f_any : Lockset.t;
  mutable f_write : Lockset.t;
  mutable f_wrote : bool;  (** last stamped access was a write *)
  mutable f_local : bool;
      (** statically proven thread-local (allocated at a hinted source
          line, see {!set_static_hints}): the Exclusive fast path may
          skip even across segment advances, because no second thread
          can ever observe the stale segment *)
  (* provenance history (config.provenance only): genuine state
     transitions of this word since its last allocation, newest first,
     capped at [max_history] with an overflow count.  "Genuine" means
     the stored state actually changed — precisely the steps the fast
     path can never skip, so the history is mode-independent. *)
  mutable hist : Report.transition list;
  mutable hist_len : int;
  mutable hist_dropped : int;
}

(* rendered "Previous state: ..." details, keyed by [detail_key] *)
module Details = Hashtbl.Make (Int)

type t = {
  config : config;
  mutable shadow : cell array;
      (** indexed by word address — the VM allocator hands out dense
          word indices, so direct mapping beats hashing *)
  mutable locks : Held_locks.t array;  (** indexed by tid *)
  segments : Segments.t;
  lock_names : (int, string) Hashtbl.t;  (** uid -> name *)
  details : string Details.t;
      (** memoised warning details: every occurrence with the same
          previous state shares one rendering.  Reset whenever
          [lock_names] changes, because the rendering names locks. *)
  collector : Report.collector;
  hints : (string * int, unit) Hashtbl.t;
      (** (file, line) of allocation sites statically proven
          thread-local; filled by {!set_static_hints} *)
  mutable benign : (int * int) list;
  mutable accesses_checked : int;
  mutable fast_hits : int;
  mutable tracer : Trace.t option;
      (** when set, state transitions / warnings / fast-path skips are
          offered to the (sampling) ring tracer *)
  mutable warning_filter : (tid:int -> addr:int -> kind:Report.kind -> bool) option;
      (** when set, a warning is only recorded if the filter agrees —
          the composition hook used by the {!Hybrid} detector *)
}

let create ?(suppressions = []) config =
  {
    config;
    shadow = [||];
    locks = [||];
    segments = Segments.create ();
    lock_names = Hashtbl.create 64;
    details = Details.create 64;
    collector = Report.collector ~suppressions ();
    hints = Hashtbl.create 8;
    benign = [];
    accesses_checked = 0;
    fast_hits = 0;
    tracer = None;
    warning_filter = None;
  }

let set_warning_filter t f = t.warning_filter <- Some f

let set_static_hints t locs =
  List.iter (fun (file, line) -> Hashtbl.replace t.hints (file, line) ()) locs
let set_tracer t tr = t.tracer <- Some tr

let reports t = Report.occurrences t.collector
let locations t = Report.locations t.collector
let location_count t = Report.location_count t.collector
let collector t = t.collector
let accesses_checked t = t.accesses_checked
let fast_path_hits t = t.fast_hits

let name_of t uid =
  match Hashtbl.find_opt t.lock_names uid with
  | Some n -> Printf.sprintf "%S" n
  | None -> Printf.sprintf "lock#%d" uid

let thread_locks t tid =
  if tid >= Array.length t.locks then
    t.locks <- Dense.grow t.locks tid ~floor:16 Held_locks.create;
  Array.unsafe_get t.locks tid

let fresh_cell () =
  {
    st = Virgin;
    f_any = Lockset.top;
    f_write = Lockset.top;
    f_wrote = false;
    f_local = false;
    hist = [];
    hist_len = 0;
    hist_dropped = 0;
  }

let cell t addr =
  if addr >= Array.length t.shadow then
    t.shadow <- Dense.grow t.shadow addr ~floor:4096 fresh_cell;
  Array.unsafe_get t.shadow addr

let is_benign t addr = List.exists (fun (base, len) -> addr >= base && addr < base + len) t.benign

(* ------------------------------------------------------------------ *)
(* The per-access state machine                                        *)
(* ------------------------------------------------------------------ *)

type access = Read | Write

(** History entries kept per word before truncation; Virgin →
    Exclusive → Shared plus a handful of refinements fit comfortably,
    and the elided count preserves the information that more
    happened. *)
let max_history = 12

(* Append one genuine transition to the cell's history and offer it to
   the tracer.  Callers only invoke this when the stored state actually
   changes — precisely the steps the fast path can never skip — so the
   recorded history is byte-identical across fast-path modes. *)
let record_transition t (ctx : Vm.Tool.ctx) c ~tid ~access ~from_st ~to_st ~loc =
  Metrics.incr m_transitions;
  let render st = Fmt.str "%a" (pp_state ~name_of:(name_of t)) st in
  (match t.tracer with
  | None -> ()
  | Some tr ->
      Trace.emit tr ~ts:(ctx.clock ()) ~tid ~name:"state_transition" ~cat:"detector"
        ~args:
          [
            ("from", Raceguard_obs.Json.Str (render from_st));
            ("to", Raceguard_obs.Json.Str (render to_st));
            ("access", Raceguard_obs.Json.Str access);
          ]
        ());
  if t.config.provenance then
    if c.hist_len >= max_history then c.hist_dropped <- c.hist_dropped + 1
    else begin
      c.hist <-
        {
          Report.t_clock = ctx.clock ();
          t_tid = tid;
          t_access = access;
          t_from = render from_st;
          t_to = render to_st;
          t_loc = loc;
        }
        :: c.hist;
      c.hist_len <- c.hist_len + 1
    end

(* A state renders from its constructor plus the owner tid or the
   interned set's id alone (given [lock_names]), so that is the key. *)
let detail_key = function
  | Virgin -> 0
  | Exclusive o -> (o.o_tid lsl 2) lor 1
  | Shared_ro ls -> (Lockset.id ls lsl 2) lor 2
  | Shared_mod ls -> (Lockset.id ls lsl 2) lor 3

let detail t prev_state =
  let key = detail_key prev_state in
  match Details.find t.details key with
  | d -> d
  | exception Not_found ->
      let d = Fmt.str "Previous state: %a" (pp_state ~name_of:(name_of t)) prev_state in
      Details.add t.details key d;
      d

let report t (ctx : Vm.Tool.ctx) ~kind ~tid ~addr ~loc ~prev_state ~cell:c =
  let block =
    match ctx.block_of addr with
    | Some (b : Vm.Memory.block) ->
        Some
          {
            Report.b_base = b.base;
            b_len = b.len;
            b_alloc_tid = b.alloc_tid;
            b_alloc_stack = b.alloc_stack;
          }
    | None -> None
  in
  let stack = loc :: ctx.stack_of tid in
  Metrics.incr m_warnings;
  (match t.tracer with
  | None -> ()
  | Some tr ->
      Trace.emit tr ~ts:(ctx.clock ()) ~tid ~name:"warning" ~cat:"detector"
        ~args:[ ("addr", Raceguard_obs.Json.int addr) ]
        ());
  let provenance =
    if t.config.provenance then
      Some
        {
          Report.p_history = List.rev c.hist;
          p_dropped = c.hist_dropped;
          p_suppressed_by = [];
        }
    else None
  in
  Report.add t.collector
    {
      Report.kind;
      addr;
      tid;
      thread_name = ctx.thread_name tid;
      stack;
      detail = detail t prev_state;
      block;
      clock = ctx.clock ();
      provenance;
    }

(* Fast-path soundness: the stamp records the interned effective sets
   the last (slow-path) access to this word applied, so when the stamp
   matches the current access the word's candidate set [ls] already
   satisfies [ls ⊆ any_set] (and, after a stamped write,
   [ls ⊆ write_set] — write-sets are always subsets of any-sets).
   Intersection is then the identity, and requiring a non-empty [ls] in
   Shared-Modified rules out the one case where the slow path would
   record another warning occurrence.  The skipped step would rewrite
   the state with an identical value and emit nothing.  The Shared
   transitions never look at the accessing thread or segment, so the
   stamp deliberately ignores both — under contention, threads holding
   the same lock share the same interned sets and all hit. *)
let check_access t ctx ~access ~tid ~addr ~atomic ~loc =
  t.accesses_checked <- t.accesses_checked + 1;
  Metrics.incr m_accesses;
  let c = cell t addr in
  match c.st with
  | Exclusive o
    when t.config.fast_path && o.o_tid = tid
         && ((c.f_local && not t.config.provenance)
            || o.o_seg = Segments.seg_of t.segments tid) ->
      (* steady-state exclusive: the slow path would rewrite the owner
         with identical fields and cannot warn.  For words allocated at
         a statically-proven thread-local line [f_local] the skip also
         covers segment advances — the rewrite would only refresh
         [o_seg], which no second thread can ever read (kept precise
         under [provenance], where the seg advance is recorded). *)
      t.fast_hits <- t.fast_hits + 1;
      Metrics.incr m_fast_hits;
      (match t.tracer with
      | None -> ()
      | Some tr ->
          Trace.emit tr ~ts:(ctx.Vm.Tool.clock ()) ~tid ~name:"fast_skip" ~cat:"detector" ())
  | prev -> (
      let lc = (thread_locks t tid).Held_locks.ctx in
      let any_set =
        match t.config.bus_model with
        | Rw_lock -> lc.Held_locks.any_bus
        | Locked_mutex -> if atomic then lc.Held_locks.any_bus else lc.Held_locks.any_set
      in
      let write_set = if atomic then lc.Held_locks.write_bus else lc.Held_locks.write_set in
      let fast =
        t.config.fast_path
        &&
        match (prev, access) with
        | Shared_ro _, Read -> c.f_any == any_set
        | Shared_mod ls, Read -> c.f_any == any_set && not (Lockset.is_empty ls)
        | Shared_mod ls, Write ->
            c.f_wrote && c.f_write == write_set && not (Lockset.is_empty ls)
        | _ -> false
      in
      if fast then begin
        t.fast_hits <- t.fast_hits + 1;
        Metrics.incr m_fast_hits;
        match t.tracer with
        | None -> ()
        | Some tr -> Trace.emit tr ~ts:(ctx.Vm.Tool.clock ()) ~tid ~name:"fast_skip" ~cat:"detector" ()
      end
      else begin
        let seg = Segments.seg_of t.segments tid in
        let access_s = match access with Read -> "read" | Write -> "write" in
        (* record-then-store, so the warning issued just below sees its
           own transition at the end of the history *)
        let set_st to_st =
          record_transition t ctx c ~tid ~access:access_s ~from_st:prev ~to_st ~loc:(Some loc);
          c.st <- to_st
        in
        let warn kind ls =
          if
            Lockset.is_empty ls
            && (not (is_benign t addr))
            && (match t.warning_filter with None -> true | Some f -> f ~tid ~addr ~kind)
          then report t ctx ~kind ~tid ~addr ~loc ~prev_state:prev ~cell:c
        in
        (if not t.config.eraser_states then begin
           (* pure Eraser: C(v) starts at Top and is refined by every access *)
           let ls_prev = match prev with Shared_mod ls -> ls | _ -> Lockset.top in
           let ls =
             match access with
             | Read -> Lockset.inter ls_prev any_set
             | Write -> Lockset.inter ls_prev write_set
           in
           (match prev with
           | Shared_mod ls0 when ls0 == ls -> ()  (* interned: same set, same state *)
           | _ -> set_st (Shared_mod ls));
           match access with
           | Read -> warn Report.Race_read ls
           | Write -> warn Report.Race_write ls
         end
         else
           match prev with
           | Virgin -> set_st (Exclusive { o_tid = tid; o_seg = seg })
           | Exclusive o ->
               if o.o_tid = tid then begin
                 (* same owner: only a segment advance is a genuine
                    change (and the only case the fast path lets
                    through here) *)
                 if o.o_seg <> seg then set_st (Exclusive { o_tid = tid; o_seg = seg })
               end
               else if t.config.thread_segments && Segments.happens_before t.segments o.o_seg seg
               then
                 (* ownership passes to the later segment; stays exclusive *)
                 set_st (Exclusive { o_tid = tid; o_seg = seg })
               else begin
                 (* second thread: initialise the candidate set with the locks
                    active at this access and start checking *)
                 match access with
                 | Read -> set_st (Shared_ro any_set)
                 | Write ->
                     set_st (Shared_mod write_set);
                     warn Report.Race_write write_set
               end
           | Shared_ro ls -> (
               match access with
               | Read ->
                   let ls' = Lockset.inter ls any_set in
                   if ls' != ls then set_st (Shared_ro ls')
               | Write ->
                   let ls = Lockset.inter ls write_set in
                   set_st (Shared_mod ls);
                   warn Report.Race_write ls
               )
           | Shared_mod ls -> (
               match access with
               | Read ->
                   let ls' = Lockset.inter ls any_set in
                   if ls' != ls then set_st (Shared_mod ls');
                   if t.config.report_reads then warn Report.Race_read ls'
               | Write ->
                   let ls' = Lockset.inter ls write_set in
                   if ls' != ls then set_st (Shared_mod ls');
                   warn Report.Race_write ls'));
        c.f_any <- any_set;
        c.f_write <- write_set;
        c.f_wrote <- access = Write
      end)

(* ------------------------------------------------------------------ *)
(* Event dispatch                                                      *)
(* ------------------------------------------------------------------ *)

let on_event t (ctx : Vm.Tool.ctx) (e : Vm.Event.t) =
  match e with
  | E_thread_start { tid; parent; _ } -> Segments.on_thread_start t.segments ~tid ~parent
  | E_thread_exit { tid } -> Segments.on_thread_exit t.segments ~tid
  | E_join { joiner; joined; _ } -> Segments.on_join t.segments ~joiner ~joined
  | E_spawn _ -> ()  (* segment split already done at thread_start *)
  | E_read { tid; addr; atomic; loc; _ } ->
      check_access t ctx ~access:Read ~tid ~addr ~atomic ~loc
  | E_write { tid; addr; atomic; loc; _ } ->
      check_access t ctx ~access:Write ~tid ~addr ~atomic ~loc
  | E_alloc { addr; len; loc; _ } ->
      (* fresh (or recycled through malloc) memory starts life virgin.
         A statically-proven thread-local allocation site marks the
         whole block, so its cells past the frontier are materialised
         first — lazily created ones would miss the mark. *)
      let local = Hashtbl.mem t.hints (loc.Loc.file, loc.Loc.line) in
      if local && len > 0 then ignore (cell t (addr + len - 1));
      Dense.iter_range t.shadow ~addr ~len (fun c ->
          c.st <- Virgin;
          c.f_any <- Lockset.top;
          c.f_wrote <- false;
          c.f_local <- local;
          if c.hist_len > 0 then begin
            (* recycled memory starts a fresh provenance life *)
            c.hist <- [];
            c.hist_len <- 0;
            c.hist_dropped <- 0
          end)
  | E_free _ -> ()
  | E_sync_create { sync; name; _ } -> (
      match Lock_id.of_sync_ref sync with
      | Some uid ->
          Hashtbl.replace t.lock_names uid name;
          (* a memoised detail may show this lock as lock#N or under
             an earlier name *)
          Details.reset t.details
      | None -> ())
  | E_acquire { tid; lock; mode; _ } -> (
      match lock with
      | Mutex m -> Held_locks.acquire (thread_locks t tid) (Lock_id.of_mutex m) Vm.Eff.Write_mode
      | Rwlock rw ->
          if t.config.track_rwlocks then
            Held_locks.acquire (thread_locks t tid) (Lock_id.of_rwlock rw) mode
      | Cond _ | Sem _ -> ())
  | E_release { tid; lock; _ } -> (
      match lock with
      | Mutex m -> Held_locks.release (thread_locks t tid) (Lock_id.of_mutex m)
      | Rwlock rw ->
          if t.config.track_rwlocks then Held_locks.release (thread_locks t tid) (Lock_id.of_rwlock rw)
      | Cond _ | Sem _ -> ())
  | E_cond_signal _ | E_cond_wait_pre _ | E_cond_wait_post _ | E_sem_post _ | E_sem_wait_post _
    ->
      ()  (* the lock-set algorithm is blind to these — §4.2.3 *)
  | E_client { tid; req; loc } -> (
      match req with
      | Vm.Eff.Destruct { addr; len } ->
          if t.config.destructor_annotations then begin
            (* the object is about to be destroyed: it becomes
               exclusively owned by the deleting thread's segment, so
               destructor-chain writes stop looking like races while
               genuine concurrent accesses still trigger a transition *)
            let seg = Segments.seg_of t.segments tid in
            for a = addr to addr + len - 1 do
              let c = cell t a in
              (match c.st with
              | Exclusive o when o.o_tid = tid && o.o_seg = seg -> ()
              | prev ->
                  record_transition t ctx c ~tid ~access:"destruct" ~from_st:prev
                    ~to_st:(Exclusive { o_tid = tid; o_seg = seg })
                    ~loc:(Some loc));
              c.st <- Exclusive { o_tid = tid; o_seg = seg };
              c.f_any <- Lockset.top;
              c.f_wrote <- false
            done
          end
      | Vm.Eff.Benign_race { addr; len } -> t.benign <- (addr, len) :: t.benign
      | Vm.Eff.Happens_before { tag } ->
          if t.config.hb_annotations then Segments.on_happens_before t.segments ~tid ~tag
      | Vm.Eff.Happens_after { tag } ->
          if t.config.hb_annotations then Segments.on_happens_after t.segments ~tid ~tag)

let tool t = Vm.Tool.make ~name:"helgrind" ~on_event:(on_event t)
