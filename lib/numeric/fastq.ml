(* Machine-word rationals with overflow detection.

   Same canonical form as {!Q} (den > 0, gcd (num, den) = 1, zero = 0/1)
   but over native 63-bit integers. Every operation that could leave the
   representable range raises [Overflow] instead of producing a wrong
   value: callers run the cheap path speculatively and fall back to the
   exact {!Q} path on the exception, so correctness never depends on the
   absence of overflow — only speed does. *)

exception Overflow

type t = { n : int; d : int }

(* min_int has no representable negation/abs, so it is banned from ever
   entering a value; arithmetic below may only produce it transiently
   inside checked primitives. *)

let add_exn a b =
  let s = a + b in
  (* overflow iff both operands share a sign and the sum does not *)
  if (a lxor s) land (b lxor s) < 0 then raise Overflow;
  s

let neg_exn a = if a = min_int then raise Overflow else -a

let mul_exn a b =
  if a = 0 || b = 0 then 0
  else begin
    if a = min_int || b = min_int then raise Overflow;
    let p = a * b in
    if p = min_int || p / b <> a then raise Overflow;
    p
  end

let rec gcd_int a b = if b = 0 then a else gcd_int b (a mod b)
let gcd_int a b = gcd_int (abs a) (abs b)

let make n d =
  if d = 0 then raise Division_by_zero;
  if n = 0 then { n = 0; d = 1 }
  else begin
    if n = min_int || d = min_int then raise Overflow;
    let n, d = if d < 0 then (-n, -d) else (n, d) in
    let g = gcd_int n d in
    { n = n / g; d = d / g }
  end

let zero = { n = 0; d = 1 }
let one = { n = 1; d = 1 }
let minus_one = { n = -1; d = 1 }
let of_int n = if n = min_int then raise Overflow else { n; d = 1 }

let num x = x.n
let den x = x.d
let sign x = compare x.n 0
let is_zero x = x.n = 0
let equal x y = x.n = y.n && x.d = y.d

let compare x y =
  (* n/d ? n'/d'  <=>  n*d' ? n'*d  (denominators positive) *)
  compare (mul_exn x.n y.d) (mul_exn y.n x.d)

let neg x = { x with n = neg_exn x.n }
let abs x = if x.n < 0 then neg x else x

let inv x =
  if x.n = 0 then raise Division_by_zero
  else if x.n < 0 then { n = neg_exn x.d; d = neg_exn x.n }
  else { n = x.d; d = x.n }

(* Cross-reduce before multiplying: keeps intermediates as small as the
   result allows, which is what lets long pivot chains stay on the fast
   path. *)
let mul x y =
  if x.n = 0 || y.n = 0 then zero
  else if x.d = 1 && y.d = 1 then { n = mul_exn x.n y.n; d = 1 }
    (* integral operands, most of a contention ILP's bounds and
       coefficients, need no gcd *)
  else begin
    let g1 = gcd_int x.n y.d and g2 = gcd_int y.n x.d in
    let n = mul_exn (x.n / g1) (y.n / g2) in
    let d = mul_exn (x.d / g2) (y.d / g1) in
    (* operands were coprime pairs after cross-reduction *)
    { n; d }
  end

let div x y =
  if y.n = 0 then raise Division_by_zero;
  mul x (inv y)

let add x y =
  if x.n = 0 then y
  else if y.n = 0 then x
  else if x.d = 1 && y.d = 1 then begin
    let n = add_exn x.n y.n in
    if n = min_int then raise Overflow;
    { n; d = 1 }
  end
  else begin
    let g = gcd_int x.d y.d in
    let dx = x.d / g and dy = y.d / g in
    (* x.n*dy + y.n*dx over x.d*dy, then one small gcd against g *)
    let n = add_exn (mul_exn x.n dy) (mul_exn y.n dx) in
    let d = mul_exn x.d dy in
    make n d
  end

let sub x y = add x (neg y)

(* Integer division rounds toward zero, and a canonical [d > 1] always
   leaves a remainder: step one down (floor) or up (ceil) from the
   quotient. Its magnitude is at most half the numerator's, so neither
   can overflow. *)
let floor x =
  if x.d = 1 then x
  else { n = (if x.n < 0 then (x.n / x.d) - 1 else x.n / x.d); d = 1 }

let ceil x =
  if x.d = 1 then x
  else { n = (if x.n > 0 then (x.n / x.d) + 1 else x.n / x.d); d = 1 }

let of_q (q : Q.t) =
  match (Bigint.to_int_opt (Q.num q), Bigint.to_int_opt (Q.den q)) with
  | Some n, Some d when n <> min_int && d <> min_int -> { n; d }
  | _ -> raise Overflow

let to_q x = Q.make (Bigint.of_int x.n) (Bigint.of_int x.d)

let to_string x =
  if x.d = 1 then string_of_int x.n
  else string_of_int x.n ^ "/" ^ string_of_int x.d

let pp fmt x = Format.pp_print_string fmt (to_string x)
