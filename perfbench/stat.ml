(** Order statistics and clocks shared by the benchmark modules. *)

(** Monotonic nanoseconds. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let now_s () = float_of_int (now_ns ()) *. 1e-9

(** Nearest-rank percentile of the first [n] entries of [a] ([p] in
    [0, 1]); sorts a copy. 0 for an empty sample. *)
let percentile ?n (a : float array) p =
  let n = Option.value n ~default:(Array.length a) in
  if n = 0 then 0.0
  else begin
    let s = Array.sub a 0 n in
    Array.sort compare s;
    let rank = int_of_float (ceil (p *. float_of_int n)) in
    s.(max 0 (min (n - 1) (rank - 1)))
  end

let median a = percentile a 0.5

(** A growable sample of measurements. *)
type samples = { mutable n : int; mutable values : float array }

let samples () = { n = 0; values = Array.make 4096 0.0 }

let add t x =
  if t.n = Array.length t.values then begin
    let bigger = Array.make (2 * t.n) 0.0 in
    Array.blit t.values 0 bigger 0 t.n;
    t.values <- bigger
  end;
  t.values.(t.n) <- x;
  t.n <- t.n + 1

let quantile t p = percentile ~n:t.n t.values p

(** [per_call ~batches ~iters f] runs [iters] calls of [f i] per batch
    and returns the median over [batches] of the mean ns per call. *)
let per_call ?(batches = 5) ~iters f =
  let means =
    Array.init batches (fun _ ->
        let t0 = now_ns () in
        for i = 0 to iters - 1 do
          f i
        done;
        float_of_int (now_ns () - t0) /. float_of_int iters)
  in
  median means
