(** A fixed-size worker pool fed by a {!Msg_queue} — the
    "thread pool" concurrency pattern of §4.2.3 and Figure 11.

    Workers are created {e before} any task data exists, so the
    thread-segment refinement cannot order task-setup writes before
    worker reads: ownership transfer happens through queue put/get,
    which the lock-set algorithm does not understand.  Running the same
    application in pool mode therefore re-introduces false positives
    that the thread-per-request pattern (Figure 10) avoids. *)

module Loc = Raceguard_util.Loc

let lc line = Loc.v "thread_pool.cpp" "ThreadPool" line

type t = {
  queue : Msg_queue.t;
  workers : int array;  (** worker tids *)
  stop_sentinel : int;
}

(** [create ~name ~workers ~handler] starts [workers] threads, each
    looping: pop a task address from the queue and run [handler] on it.
    The handler runs on the worker's simulated stack. *)
let create ~name ~workers ~queue_capacity ~handler () =
  let stop_sentinel = -1 in
  let queue = Msg_queue.create ~name:(name ^ ".queue") ~capacity:queue_capacity () in
  let worker_body _idx () =
    (* every pool worker runs the same function: one stack frame name,
       so identical reports from different workers dedup together *)
    Api.with_frame (Loc.v "thread_pool.cpp" "pool_worker" 30) @@ fun () ->
    let rec loop () =
      let task = Msg_queue.get queue in
      if task <> stop_sentinel then begin
        handler task;
        loop ()
      end
    in
    loop ()
  in
  let workers =
    Array.init workers (fun i ->
        Api.spawn ~loc:(lc 40) ~name:(Printf.sprintf "%s.worker%d" name i) (worker_body i))
  in
  { queue; workers; stop_sentinel }

(** Submit the address of a task struct for processing. *)
let submit t task =
  if task = t.stop_sentinel then invalid_arg "Thread_pool.submit: reserved value";
  Msg_queue.put t.queue task

(** Current queue depth (takes the queue mutex) — the overload
    high-water probe. *)
let queue_length t = Msg_queue.length t.queue

(** Push one sentinel per worker and join them all. *)
let shutdown t =
  Array.iter (fun _ -> Msg_queue.put t.queue t.stop_sentinel) t.workers;
  Array.iter (fun tid -> Api.join ~loc:(lc 52) tid) t.workers
