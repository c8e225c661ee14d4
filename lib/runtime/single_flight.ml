type 'a state = Pending | Done of 'a

type 'a t = {
  table : (string, 'a state) Hashtbl.t;
  lock : Mutex.t;
  settled : Condition.t;
  mutable count : int; (* [Done] entries *)
  entries : Obs.Metrics.gauge option;
}

let create ?entries () =
  {
    table = Hashtbl.create 128;
    lock = Mutex.create ();
    settled = Condition.create ();
    count = 0;
    entries;
  }

let acquire t k =
  Mutex.lock t.lock;
  let rec loop ~waited =
    match Hashtbl.find_opt t.table k with
    | Some (Done v) ->
      Mutex.unlock t.lock;
      `Hit (v, waited)
    | Some Pending ->
      Condition.wait t.settled t.lock;
      loop ~waited:true
    | None ->
      Hashtbl.replace t.table k Pending;
      Mutex.unlock t.lock;
      `Reserved
  in
  loop ~waited:false

(* Runs [f] under the lock, then wakes every waiter. *)
let update t f =
  Mutex.protect t.lock (fun () ->
      f ();
      Option.iter (fun g -> Obs.Metrics.set g t.count) t.entries;
      Condition.broadcast t.settled)

let reserved t k =
  match Hashtbl.find_opt t.table k with Some Pending -> true | _ -> false

let settle t k v =
  update t (fun () ->
      if reserved t k then begin
        Hashtbl.replace t.table k (Done v);
        t.count <- t.count + 1
      end)

let fail t k = update t (fun () -> if reserved t k then Hashtbl.remove t.table k)

let size t = Mutex.protect t.lock (fun () -> t.count)

let clear t =
  update t (fun () ->
      Hashtbl.reset t.table;
      t.count <- 0)
