(** A bounded message queue built from a mutex and two condition
    variables, as {e application-level library code}.

    This is deliberately implemented on top of the low-level primitives
    rather than inside the VM: the paper's §4.2.3 observes that
    higher-level synchronisation (message put/get in thread-pool
    patterns) is invisible to the lock-set algorithm, which therefore
    reports false positives on data handed over through a queue.  For
    that effect to reproduce, the detector must see exactly what
    Helgrind saw — mutex acquire/release and condition signal/wait —
    and nothing more.  The HAPPENS_BEFORE/AFTER client requests that
    put/get emit (the instrumented build of the §5 extension) are read
    only by a detector that honours them.

    The ring buffer storage lives in VM memory, so the detector also
    checks the queue's own internals (which are properly locked and
    must never be reported). *)

module Loc = Raceguard_util.Loc

let lc line = Loc.v "msg_queue.cpp" "MsgQueue" line

type t = {
  mutex : Api.Mutex.t;
  nonempty : Api.Cond.t;
  nonfull : Api.Cond.t;
  buf : int;  (** base address of the ring storage *)
  capacity : int;
  head : int;  (** address of head index *)
  tail : int;  (** address of tail index *)
  count : int;  (** address of element count *)
}

let create ~name ~capacity () =
  if capacity <= 0 then invalid_arg "Msg_queue.create: capacity must be positive";
  let buf = Api.alloc ~loc:(lc 20) (capacity + 3) in
  {
    mutex = Api.Mutex.create ~loc:(lc 21) (name ^ ".mutex");
    nonempty = Api.Cond.create ~loc:(lc 22) (name ^ ".nonempty");
    nonfull = Api.Cond.create ~loc:(lc 23) (name ^ ".nonfull");
    buf;
    capacity;
    head = buf + capacity;
    tail = buf + capacity + 1;
    count = buf + capacity + 2;
  }

(** Enqueue a value (usually the address of a message struct).  Blocks
    while the queue is full. *)
let put t v =
  Api.annotate_happens_before ~tag:v;
  Api.Mutex.lock ~loc:(lc 30) t.mutex;
  while Api.read ~loc:(lc 31) t.count = t.capacity do
    Api.Cond.wait ~loc:(lc 32) t.nonfull t.mutex
  done;
  let tail = Api.read ~loc:(lc 34) t.tail in
  Api.write ~loc:(lc 35) (t.buf + tail) v;
  Api.write ~loc:(lc 36) t.tail ((tail + 1) mod t.capacity);
  Api.write ~loc:(lc 37) t.count (Api.read ~loc:(lc 37) t.count + 1);
  Api.Cond.signal ~loc:(lc 38) t.nonempty;
  Api.Mutex.unlock ~loc:(lc 39) t.mutex

(** Dequeue a value; blocks while the queue is empty. *)
let get t =
  Api.Mutex.lock ~loc:(lc 44) t.mutex;
  while Api.read ~loc:(lc 45) t.count = 0 do
    Api.Cond.wait ~loc:(lc 46) t.nonempty t.mutex
  done;
  let head = Api.read ~loc:(lc 48) t.head in
  let v = Api.read ~loc:(lc 49) (t.buf + head) in
  Api.write ~loc:(lc 50) t.head ((head + 1) mod t.capacity);
  Api.write ~loc:(lc 51) t.count (Api.read ~loc:(lc 51) t.count - 1);
  Api.Cond.signal ~loc:(lc 52) t.nonfull;
  Api.Mutex.unlock ~loc:(lc 53) t.mutex;
  Api.annotate_happens_after ~tag:v;
  v

let length t =
  Api.Mutex.lock ~loc:(lc 57) t.mutex;
  let n = Api.read ~loc:(lc 58) t.count in
  Api.Mutex.unlock ~loc:(lc 59) t.mutex;
  n
