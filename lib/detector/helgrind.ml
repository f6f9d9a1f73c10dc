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
      support "for free", as the paper notes: under [Rw_lock] rw-lock
      events are tracked, under [Locked_mutex] they are ignored, as
      the original Helgrind did.  Reads with an empty candidate set in
      the Shared-Modified state are reported.

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
    fast path on or off.  A word's Figure-1 state is stored flat in its
    cell (a tag, the owner's tid and segment, the candidate set), and a
    transition overwrites those fields; the [state] value that renders
    it is built only for a warning, the tracer or [provenance].  So an
    access allocates nothing unless it warns or one of those reads its
    history. *)

module Loc = Raceguard_util.Loc
module Vm = Raceguard_vm
module Metrics = Raceguard_obs.Metrics
module Trace = Raceguard_obs.Trace
open Vm.Event

(* Process-global instruments (one registration per process, state
   domain-local).  They are the only access and fast-path counts: a
   caller reads one detector's by diffing snapshots around its run. *)
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
  eraser_states : bool;  (** Figure 1 state machine (vs. pure Eraser) *)
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
    eraser_states = true;
    hb_annotations = false;
    fast_path = true;
    provenance = false;
  }

let hwlc = { original with bus_model = Rw_lock }
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
      ("eraser_states", J.Bool c.eraser_states);
      ("hb_annotations", J.Bool c.hb_annotations);
      ("fast_path", J.Bool c.fast_path);
      ("provenance", J.Bool c.provenance);
    ]

(* ------------------------------------------------------------------ *)
(* Shadow state                                                        *)
(* ------------------------------------------------------------------ *)

(* The Figure-1 state of a word as it is rendered: built from the
   cell's fields only when a warning, the tracer or provenance reads
   it.  A state renders from its constructor plus the owner tid or the
   candidate set, so the owner's segment is not part of it. *)
type state =
  | Virgin
  | Exclusive of int  (** owner tid *)
  | Shared_ro of Lockset.t
  | Shared_mod of Lockset.t

let pp_state ~name_of ppf = function
  | Virgin -> Fmt.string ppf "virgin"
  | Exclusive tid -> Fmt.pf ppf "exclusive (thread %d)" tid
  | Shared_ro ls -> Fmt.pf ppf "shared RO, %a" (Lockset.pp ~name_of) ls
  | Shared_mod ls -> Fmt.pf ppf "shared modified, %a" (Lockset.pp ~name_of) ls

type tag = T_virgin | T_exclusive | T_shared_ro | T_shared_mod

(* The state is stored flat: a transition overwrites fields of a cell
   that is usually already in the major heap, where a freshly boxed
   state would cost an allocation, a write-barrier entry and a
   promotion at the next minor collection (DESIGN.md §8).  The cell
   keeps to 7 fields, because each detector allocates 4,096 of them up
   front. *)
type cell = {
  mutable tag : tag;
  mutable o_tid : int;  (** Exclusive: the owner *)
  mutable o_seg : Segments.seg;  (** Exclusive: the owner's segment *)
  mutable ls : Lockset.t;  (** Shared_ro / Shared_mod: the candidate set *)
  (* fast-path stamp: the interned effective sets the last slow-path
     access applied (physical equality suffices — sets are interned).
     Thread-agnostic on purpose: the Shared transitions never look at
     the accessing thread, and under contention different threads
     holding the same lock produce the same interned sets.  An
     effective set is never ⊤, so [Lockset.top] invalidates a stamp:
     [f_any] after an allocation, [f_write] also when the last stamped
     access was a read. *)
  mutable f_any : Lockset.t;
  mutable f_write : Lockset.t;
  mutable local : bool;
      (** statically proven thread-local (allocated at a hinted source
          line, see {!set_static_hints}): the Exclusive fast path may
          skip even across segment advances, because no second thread
          can ever observe the stale segment *)
}

(* provenance history (config.provenance only): genuine state
   transitions of one word since its last allocation, newest first,
   capped at [max_history] with an overflow count.  "Genuine" means
   the stored state actually changed — precisely the steps the fast
   path can never skip, so the history is mode-independent. *)
type history = {
  mutable h_rev : Report.transition list;
  mutable h_len : int;
  mutable h_dropped : int;
}

let state_of tag ~tid ls =
  match tag with
  | T_virgin -> Virgin
  | T_exclusive -> Exclusive tid
  | T_shared_ro -> Shared_ro ls
  | T_shared_mod -> Shared_mod ls

module Int_tbl = Hashtbl.Make (Int)

type t = {
  config : config;
  mutable shadow : cell array;
      (** indexed by word address — the VM allocator hands out dense
          word indices, so direct mapping beats hashing *)
  mutable locks : Held_locks.t array;  (** indexed by tid *)
  segments : Segments.t;
  lock_names : (int, string) Hashtbl.t;  (** uid -> name *)
  details : string Int_tbl.t;
      (** memoised warning details: every occurrence with the same
          previous state ([detail_key]) shares one rendering.  Reset
          whenever [lock_names] changes, because the rendering names
          locks. *)
  histories : history Int_tbl.t;  (** word address -> history, under [provenance] *)
  collector : Report.collector;
  hints : (string * int, unit) Hashtbl.t;
      (** (file, line) of allocation sites statically proven
          thread-local; filled by {!set_static_hints} *)
  mutable benign : (int * int) list;
  mutable tracer : Trace.t option;
      (** when set, state transitions / warnings / fast-path skips are
          offered to the (sampling) ring tracer *)
  mutable warning_filter : (tid:int -> addr:int -> kind:Report.kind -> bool) option;
      (** when set, a warning is only recorded if the filter agrees —
          the composition hook used by the {!Hybrid} detector *)
}

let create ?on_report ?suppressions config =
  {
    config;
    shadow = [||];
    locks = [||];
    segments = Segments.create ();
    lock_names = Hashtbl.create 64;
    details = Int_tbl.create 64;
    histories = Int_tbl.create 64;
    collector = Report.collector ?on_report ?suppressions ();
    hints = Hashtbl.create 8;
    benign = [];
    tracer = None;
    warning_filter = None;
  }

let set_warning_filter t f = t.warning_filter <- Some f

let set_static_hints t locs =
  List.iter (fun (file, line) -> Hashtbl.replace t.hints (file, line) ()) locs
let set_tracer t tr = t.tracer <- Some tr

let locations t = Report.locations t.collector
let location_count t = Report.location_count t.collector
let collector t = t.collector

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
    tag = T_virgin;
    o_tid = 0;
    o_seg = 0;
    ls = Lockset.top;
    f_any = Lockset.top;
    f_write = Lockset.top;
    local = false;
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

(* Record one genuine transition of the word at [addr]: [c] already
   holds the new state and the old one comes as its fields.  Append it
   to the word's history and offer it to the tracer; both render, so
   nothing is built unless one of them is on.  Callers only invoke this
   when the stored state actually changes — precisely the steps the
   fast path can never skip — so the recorded history is byte-identical
   across fast-path modes. *)
let record_transition t (ctx : Vm.Tool.ctx) c ~addr ~tid ~access ~from_tag ~from_tid ~from_ls ~loc =
  Metrics.incr m_transitions;
  if t.tracer != None || t.config.provenance then begin
    let render st = Fmt.str "%a" (pp_state ~name_of:(name_of t)) st in
    let from_st = state_of from_tag ~tid:from_tid from_ls
    and to_st = state_of c.tag ~tid:c.o_tid c.ls in
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
    if t.config.provenance then begin
      let h =
        match Int_tbl.find t.histories addr with
        | h -> h
        | exception Not_found ->
            let h = { h_rev = []; h_len = 0; h_dropped = 0 } in
            Int_tbl.add t.histories addr h;
            h
      in
      if h.h_len >= max_history then h.h_dropped <- h.h_dropped + 1
      else begin
        h.h_rev <-
          {
            Report.t_clock = ctx.clock ();
            t_tid = tid;
            t_access = access;
            t_from = render from_st;
            t_to = render to_st;
            t_loc = Some loc;
          }
          :: h.h_rev;
        h.h_len <- h.h_len + 1
      end
    end
  end

(* Store-then-record, so a warning issued just after sees its own
   transition at the end of the history.  The accessing thread becomes
   the owner. *)
let set_exclusive t ctx c ~addr ~tid ~access ~loc seg =
  let from_tag = c.tag and from_tid = c.o_tid in
  c.tag <- T_exclusive;
  c.o_tid <- tid;
  c.o_seg <- seg;
  record_transition t ctx c ~addr ~tid ~access ~from_tag ~from_tid ~from_ls:c.ls ~loc

let set_shared t ctx c ~addr ~tid ~access ~loc tag ls =
  let from_tag = c.tag and from_ls = c.ls in
  c.tag <- tag;
  c.ls <- ls;
  record_transition t ctx c ~addr ~tid ~access ~from_tag ~from_tid:c.o_tid ~from_ls ~loc

(* The key of a detail is the rendered state's constructor plus the
   owner tid or the interned set's id (given [lock_names]). *)
let detail_key = function
  | Virgin -> 0
  | Exclusive tid -> (tid lsl 2) lor 1
  | Shared_ro ls -> (Lockset.id ls lsl 2) lor 2
  | Shared_mod ls -> (Lockset.id ls lsl 2) lor 3

let detail t prev_state =
  let key = detail_key prev_state in
  match Int_tbl.find t.details key with
  | d -> d
  | exception Not_found ->
      let d = Fmt.str "Previous state: %a" (pp_state ~name_of:(name_of t)) prev_state in
      Int_tbl.add t.details key d;
      d

let report t (ctx : Vm.Tool.ctx) ~kind ~tid ~addr ~loc ~prev_state =
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
        (match Int_tbl.find_opt t.histories addr with
        | Some h ->
            { Report.p_history = List.rev h.h_rev; p_dropped = h.h_dropped; p_suppressed_by = [] }
        | None -> { Report.p_history = []; p_dropped = 0; p_suppressed_by = [] })
    else None
  in
  Report.add t.collector
    (Report.of_access ctx ~kind ~tid ~addr ~loc ?provenance (detail t prev_state))

(* A warning when the candidate set [ls] is empty, outside a benign
   range and admitted by the filter; the detail names the state the
   word was in before this access. *)
let warn t ctx ~kind ~tid ~addr ~loc ~prev_tag ~prev_tid ~prev_ls ls =
  if
    Lockset.is_empty ls
    && (not (is_benign t addr))
    && match t.warning_filter with None -> true | Some f -> f ~tid ~addr ~kind
  then report t ctx ~kind ~tid ~addr ~loc ~prev_state:(state_of prev_tag ~tid:prev_tid prev_ls)

let fast_hit t (ctx : Vm.Tool.ctx) ~tid =
  Metrics.incr m_fast_hits;
  match t.tracer with
  | None -> ()
  | Some tr -> Trace.emit tr ~ts:(ctx.clock ()) ~tid ~name:"fast_skip" ~cat:"detector" ()

(* The Figure-1 step of an access the fast path let through. *)
let slow_path t ctx c ~access ~tid ~addr ~loc ~any_set ~write_set =
  let prev_tag = c.tag and prev_tid = c.o_tid and prev_ls = c.ls in
  let seg = Segments.seg_of t.segments tid in
  let access_s = match access with Read -> "read" | Write -> "write" in
  let kind = match access with Read -> Report.Race_read | Write -> Report.Race_write in
  (if not t.config.eraser_states then begin
     (* pure Eraser: C(v) starts at Top and is refined by every access *)
     let ls_prev = if prev_tag = T_shared_mod then prev_ls else Lockset.top in
     let ls = Lockset.inter ls_prev (match access with Read -> any_set | Write -> write_set) in
     (* interned: the same set is the same state *)
     if not (prev_tag = T_shared_mod && prev_ls == ls) then
       set_shared t ctx c ~addr ~tid ~access:access_s ~loc T_shared_mod ls;
     warn t ctx ~kind ~tid ~addr ~loc ~prev_tag ~prev_tid ~prev_ls ls
   end
   else
     match prev_tag with
     | T_virgin -> set_exclusive t ctx c ~addr ~tid ~access:access_s ~loc seg
     | T_exclusive ->
         if prev_tid = tid then begin
           (* same owner: only a segment advance is a genuine change
              (and the only case the fast path lets through here) *)
           if c.o_seg <> seg then set_exclusive t ctx c ~addr ~tid ~access:access_s ~loc seg
         end
         else if t.config.thread_segments && Segments.happens_before t.segments c.o_seg seg then
           (* ownership passes to the later segment; stays exclusive *)
           set_exclusive t ctx c ~addr ~tid ~access:access_s ~loc seg
         else begin
           (* second thread: initialise the candidate set with the locks
              active at this access and start checking *)
           match access with
           | Read -> set_shared t ctx c ~addr ~tid ~access:access_s ~loc T_shared_ro any_set
           | Write ->
               set_shared t ctx c ~addr ~tid ~access:access_s ~loc T_shared_mod write_set;
               warn t ctx ~kind ~tid ~addr ~loc ~prev_tag ~prev_tid ~prev_ls write_set
         end
     | T_shared_ro -> (
         match access with
         | Read ->
             let ls' = Lockset.inter prev_ls any_set in
             if ls' != prev_ls then
               set_shared t ctx c ~addr ~tid ~access:access_s ~loc T_shared_ro ls'
         | Write ->
             let ls = Lockset.inter prev_ls write_set in
             set_shared t ctx c ~addr ~tid ~access:access_s ~loc T_shared_mod ls;
             warn t ctx ~kind ~tid ~addr ~loc ~prev_tag ~prev_tid ~prev_ls ls)
     | T_shared_mod ->
         let ls' = Lockset.inter prev_ls (match access with Read -> any_set | Write -> write_set) in
         if ls' != prev_ls then
           set_shared t ctx c ~addr ~tid ~access:access_s ~loc T_shared_mod ls';
         warn t ctx ~kind ~tid ~addr ~loc ~prev_tag ~prev_tid ~prev_ls ls');
  c.f_any <- any_set;
  c.f_write <- (match access with Write -> write_set | Read -> Lockset.top)

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
  Metrics.incr m_accesses;
  let c = cell t addr in
  if
    t.config.fast_path && c.tag = T_exclusive && c.o_tid = tid
    && ((c.local && not t.config.provenance)
       || c.o_seg = Segments.seg_of t.segments tid)
  then
    (* steady-state exclusive: the slow path would rewrite the owner
       with identical fields and cannot warn.  For words allocated at
       a statically-proven thread-local line the skip also covers
       segment advances — the rewrite would only refresh [o_seg],
       which no second thread can ever read (kept precise under
       [provenance], where the seg advance is recorded). *)
    fast_hit t ctx ~tid
  else begin
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
      match (c.tag, access) with
      | T_shared_ro, Read -> c.f_any == any_set
      | T_shared_mod, Read -> c.f_any == any_set && not (Lockset.is_empty c.ls)
      | T_shared_mod, Write -> c.f_write == write_set && not (Lockset.is_empty c.ls)
      | _ -> false
    in
    if fast then fast_hit t ctx ~tid
    else slow_path t ctx c ~access ~tid ~addr ~loc ~any_set ~write_set
  end

(* ------------------------------------------------------------------ *)
(* Event dispatch                                                      *)
(* ------------------------------------------------------------------ *)

(* [E_alloc]'s sweep: the word starts virgin with an invalid stamp *)
let reset_cell c ~local =
  c.tag <- T_virgin;
  c.f_any <- Lockset.top;
  c.f_write <- Lockset.top;
  c.local <- local

let reset_plain c = reset_cell c ~local:false
let reset_local c = reset_cell c ~local:true

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
      if Hashtbl.length t.hints > 0 && Hashtbl.mem t.hints (loc.Loc.file, loc.Loc.line) then begin
        if len > 0 then ignore (cell t (addr + len - 1));
        Dense.iter_range t.shadow ~addr ~len reset_local
      end
      else Dense.iter_range t.shadow ~addr ~len reset_plain;
      if t.config.provenance then
        (* recycled memory starts a fresh provenance life *)
        for a = addr to min (addr + len - 1) (Array.length t.shadow - 1) do
          Int_tbl.remove t.histories a
        done
  | E_free _ -> ()
  | E_sync_create { sync; name; _ } -> (
      match Lock_id.of_sync_ref sync with
      | Some uid ->
          Hashtbl.replace t.lock_names uid name;
          (* a memoised detail may show this lock as lock#N or under
             an earlier name *)
          Int_tbl.reset t.details
      | None -> ())
  | E_acquire { tid; lock; mode; _ } -> (
      match lock with
      | Mutex m -> Held_locks.acquire (thread_locks t tid) (Lock_id.of_mutex m) Vm.Eff.Write_mode
      | Rwlock rw -> (
          match t.config.bus_model with
          | Rw_lock -> Held_locks.acquire (thread_locks t tid) (Lock_id.of_rwlock rw) mode
          | Locked_mutex -> ())
      | Cond _ | Sem _ -> ())
  | E_release { tid; lock; _ } -> (
      match lock with
      | Mutex m -> Held_locks.release (thread_locks t tid) (Lock_id.of_mutex m)
      | Rwlock rw -> (
          match t.config.bus_model with
          | Rw_lock -> Held_locks.release (thread_locks t tid) (Lock_id.of_rwlock rw)
          | Locked_mutex -> ())
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
              if not (c.tag = T_exclusive && c.o_tid = tid && c.o_seg = seg) then
                set_exclusive t ctx c ~addr:a ~tid ~access:"destruct" ~loc seg;
              c.f_any <- Lockset.top;
              c.f_write <- Lockset.top
            done
          end
      | Vm.Eff.Benign_race { addr; len } -> t.benign <- (addr, len) :: t.benign
      | Vm.Eff.Happens_before { tag } ->
          if t.config.hb_annotations then Segments.on_happens_before t.segments ~tid ~tag
      | Vm.Eff.Happens_after { tag } ->
          if t.config.hb_annotations then Segments.on_happens_after t.segments ~tid ~tag)

let tool t = Vm.Tool.make ~name:"helgrind" ~on_event:(on_event t)
