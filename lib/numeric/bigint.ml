(* Sign-magnitude arbitrary-precision integers, base 2^30.

   Representation invariants:
   - [sign] is -1, 0 or 1, and is 0 iff [mag] is empty;
   - [mag] is little-endian with no trailing zero digit;
   - every digit is in [0, base).

   Base 2^30 keeps all intermediate products of the schoolbook algorithms
   (digit * digit + carry) within the 63-bit native int range. *)

let base_bits = 30
let base = 1 lsl base_bits
let base_mask = base - 1

type t = { sign : int; mag : int array }

let zero = { sign = 0; mag = [||] }
let one = { sign = 1; mag = [| 1 |] }
let minus_one = { sign = -1; mag = [| 1 |] }

(* Strip trailing zero digits; the result shares no suffix with the input. *)
let trim mag =
  let n = Array.length mag in
  let rec top i = if i >= 0 && mag.(i) = 0 then top (i - 1) else i in
  let hi = top (n - 1) in
  if hi = n - 1 then mag else Array.sub mag 0 (hi + 1)

let make sign mag =
  let mag = trim mag in
  if Array.length mag = 0 then zero
  else { sign = (if sign >= 0 then 1 else -1); mag }

let sign x = x.sign
let is_zero x = x.sign = 0

let of_int n =
  if n = 0 then zero
  else begin
    let sign = if n > 0 then 1 else -1 in
    (* min_int has no positive counterpart; carve digits off with mod. *)
    let rec digits n acc =
      if n = 0 then List.rev acc
      else digits (n / base) ((n mod base) :: acc)
    in
    let ds = digits (abs n) [] in
    { sign; mag = Array.of_list ds }
  end

(* Magnitude comparison: a < b => -1, a = b => 0, a > b => 1. *)
let compare_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else begin
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)
  end

let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let lr = 1 + Stdlib.max la lb in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let da = if i < la then a.(i) else 0 in
    let db = if i < lb then b.(i) else 0 in
    let s = da + db + !carry in
    r.(i) <- s land base_mask;
    carry := s lsr base_bits
  done;
  r

(* Requires compare_mag a b >= 0. *)
let sub_mag a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let db = if i < lb then b.(i) else 0 in
    let s = a.(i) - db - !borrow in
    if s < 0 then begin
      r.(i) <- s + base;
      borrow := 1
    end else begin
      r.(i) <- s;
      borrow := 0
    end
  done;
  r

let mul_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      if ai <> 0 then begin
        for j = 0 to lb - 1 do
          let s = r.(i + j) + (ai * b.(j)) + !carry in
          r.(i + j) <- s land base_mask;
          carry := s lsr base_bits
        done;
        r.(i + lb) <- r.(i + lb) + !carry
      end
    done;
    r
  end

let neg x = if x.sign = 0 then x else { x with sign = -x.sign }
let abs x = if x.sign < 0 then neg x else x

let rec add x y =
  if x.sign = 0 then y
  else if y.sign = 0 then x
  else if x.sign = y.sign then make x.sign (add_mag x.mag y.mag)
  else begin
    match compare_mag x.mag y.mag with
    | 0 -> zero
    | c when c > 0 -> make x.sign (sub_mag x.mag y.mag)
    | _ -> make y.sign (sub_mag y.mag x.mag)
  end

and sub x y = add x (neg y)

let of_int n =
  (* Final version: handle min_int via (n+1) - 1 to avoid abs overflow. *)
  if n = min_int then sub (of_int (n + 1)) (of_int 1) else of_int n

let succ x = add x one
let pred x = sub x one

let mul x y =
  if x.sign = 0 || y.sign = 0 then zero
  else make (x.sign * y.sign) (mul_mag x.mag y.mag)

(* Divide magnitude by a single digit 0 < d < base. Returns (quot, rem). *)
let divmod_mag_digit a d =
  let la = Array.length a in
  let q = Array.make la 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!r lsl base_bits) lor a.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (q, !r)

(* Knuth algorithm D on magnitudes. Requires |v| >= 2 digits, u >= v.
   Returns (quotient, remainder). *)
let divmod_mag_knuth u v =
  let n = Array.length v in
  (* Normalise so the top divisor digit has its high bit set. *)
  let shift =
    let rec go s top = if top >= base / 2 then s else go (s + 1) (top lsl 1) in
    go 0 v.(n - 1)
  in
  let shl a s =
    if s = 0 then Array.copy a
    else begin
      let la = Array.length a in
      let r = Array.make (la + 1) 0 in
      let carry = ref 0 in
      for i = 0 to la - 1 do
        let x = (a.(i) lsl s) lor !carry in
        r.(i) <- x land base_mask;
        carry := x lsr base_bits
      done;
      r.(la) <- !carry;
      r
    end
  in
  let shr a s =
    if s = 0 then trim a
    else begin
      let la = Array.length a in
      let r = Array.make la 0 in
      let carry = ref 0 in
      for i = la - 1 downto 0 do
        let x = (!carry lsl base_bits) lor a.(i) in
        r.(i) <- x lsr s;
        carry := x land ((1 lsl s) - 1)
      done;
      trim r
    end
  in
  let v = trim (shl v shift) in
  let u = shl u shift in
  (* Ensure u has an extra top slot. *)
  let u =
    let lu = Array.length u in
    if lu > 0 && u.(lu - 1) = 0 then u
    else begin
      let r = Array.make (lu + 1) 0 in
      Array.blit u 0 r 0 lu;
      r
    end
  in
  let m = Array.length u - 1 - n in
  let q = Array.make (m + 1) 0 in
  let vn1 = v.(n - 1) in
  let vn2 = if n >= 2 then v.(n - 2) else 0 in
  for j = m downto 0 do
    let top2 = (u.(j + n) lsl base_bits) lor u.(j + n - 1) in
    let qhat = ref (top2 / vn1) in
    let rhat = ref (top2 mod vn1) in
    if !qhat >= base then begin
      qhat := base - 1;
      rhat := top2 - (!qhat * vn1)
    end;
    let continue = ref true in
    while
      !continue && !rhat < base
      && !qhat * vn2 > (!rhat lsl base_bits) lor u.(j + n - 2)
    do
      decr qhat;
      rhat := !rhat + vn1;
      if !rhat >= base then continue := false
    done;
    (* Multiply-subtract qhat * v from u[j .. j+n]. *)
    let borrow = ref 0 in
    let carry = ref 0 in
    for i = 0 to n - 1 do
      let p = (!qhat * v.(i)) + !carry in
      carry := p lsr base_bits;
      let s = u.(j + i) - (p land base_mask) - !borrow in
      if s < 0 then begin
        u.(j + i) <- s + base;
        borrow := 1
      end else begin
        u.(j + i) <- s;
        borrow := 0
      end
    done;
    let s = u.(j + n) - !carry - !borrow in
    if s < 0 then begin
      (* qhat was one too large: add v back. *)
      u.(j + n) <- s + base;
      decr qhat;
      let c = ref 0 in
      for i = 0 to n - 1 do
        let x = u.(j + i) + v.(i) + !c in
        u.(j + i) <- x land base_mask;
        c := x lsr base_bits
      done;
      u.(j + n) <- (u.(j + n) + !c) land base_mask
    end else u.(j + n) <- s;
    q.(j) <- !qhat
  done;
  let r = shr (Array.sub u 0 n) shift in
  (trim q, r)

(* Magnitude division dispatcher. *)
let divmod_mag u v =
  match Array.length v with
  | 0 -> raise Division_by_zero
  | _ when compare_mag u v < 0 -> ([||], Array.copy u)
  | 1 ->
    let q, r = divmod_mag_digit u v.(0) in
    (trim q, if r = 0 then [||] else [| r |])
  | _ -> divmod_mag_knuth u v

(* Euclidean division: remainder in [0, |b|). *)
let divmod a b =
  if b.sign = 0 then raise Division_by_zero;
  let qm, rm = divmod_mag a.mag b.mag in
  let q0 = make (a.sign * b.sign) qm in
  let r0 = make a.sign rm in
  if r0.sign >= 0 then (q0, r0)
  else if b.sign > 0 then (pred q0, add r0 b)
  else (succ q0, sub r0 b)

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let tdiv a b =
  if b.sign = 0 then raise Division_by_zero;
  let qm, _ = divmod_mag a.mag b.mag in
  make (a.sign * b.sign) qm

let equal x y = x.sign = y.sign && compare_mag x.mag y.mag = 0

let compare x y =
  if x.sign <> y.sign then compare x.sign y.sign
  else x.sign * compare_mag x.mag y.mag

let min x y = if compare x y <= 0 then x else y
let max x y = if compare x y >= 0 then x else y

let hash x =
  Array.fold_left (fun h d -> (h * 1000003) lxor d) (x.sign + 17) x.mag

let rec gcd a b =
  let a = abs a and b = abs b in
  if is_zero b then a else gcd b (rem a b)

let pow x n =
  if n < 0 then invalid_arg "Bigint.pow: negative exponent";
  let rec go acc b n =
    if n = 0 then acc
    else if n land 1 = 1 then go (mul acc b) (mul b b) (n lsr 1)
    else go acc (mul b b) (n lsr 1)
  in
  go one x n

let shift_left x s =
  if s < 0 then invalid_arg "Bigint.shift_left";
  if x.sign = 0 || s = 0 then x
  else begin
    let digit_shift = s / base_bits and bit_shift = s mod base_bits in
    let la = Array.length x.mag in
    let r = Array.make (la + digit_shift + 1) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let v = (x.mag.(i) lsl bit_shift) lor !carry in
      r.(i + digit_shift) <- v land base_mask;
      carry := v lsr base_bits
    done;
    r.(la + digit_shift) <- !carry;
    make x.sign r
  end

let shift_right x s =
  if s < 0 then invalid_arg "Bigint.shift_right";
  if x.sign = 0 || s = 0 then x
  else begin
    (* Arithmetic shift = floor division by 2^s. *)
    let q, r = divmod_mag x.mag (shift_left one s).mag in
    let q0 = make x.sign q in
    if x.sign < 0 && Array.length r > 0 then pred q0 else q0
  end

let to_int_opt x =
  (* A native int holds at most 63 bits: up to 3 digits with a bounded top. *)
  let n = Array.length x.mag in
  if n = 0 then Some 0
  else if n > 3 then None
  else begin
    let v =
      Array.to_list x.mag
      |> List.rev
      |> List.fold_left (fun acc d -> (acc * base) + d) 0
    in
    (* Overflow shows up as a sign flip or magnitude loss. *)
    if n = 3 && x.mag.(2) >= 4 then
      if x.sign < 0 && x.mag.(2) = 4 && x.mag.(1) = 0 && x.mag.(0) = 0 then
        Some min_int
      else None
    else if v < 0 then None
    else Some (x.sign * v)
  end

let to_int_exn x =
  match to_int_opt x with
  | Some v -> v
  | None -> failwith "Bigint.to_int_exn: value out of int range"

let to_float x =
  let f =
    Array.to_list x.mag
    |> List.rev
    |> List.fold_left (fun acc d -> (acc *. float_of_int base) +. float_of_int d) 0.
  in
  if x.sign < 0 then -.f else f

let ten_pow9 = 1_000_000_000

let to_string x =
  if Array.length x.mag = 1 then
    (* one base-2^30 digit fits a native int: the common case of every
       model coefficient and bound *)
    string_of_int (x.sign * x.mag.(0))
  else if x.sign = 0 then "0"
  else begin
    let buf = Buffer.create 16 in
    let rec chunks mag acc =
      if Array.length mag = 0 then acc
      else begin
        let q, r = divmod_mag_digit mag ten_pow9 in
        chunks (trim q) (r :: acc)
      end
    in
    (match chunks x.mag [] with
     | [] -> Buffer.add_char buf '0'
     | first :: rest ->
       if x.sign < 0 then Buffer.add_char buf '-';
       Buffer.add_string buf (string_of_int first);
       List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest);
    Buffer.contents buf
  end

let of_string s =
  let s = String.concat "" (String.split_on_char '_' s) in
  let len = String.length s in
  if len = 0 then invalid_arg "Bigint.of_string: empty string";
  let sign, start =
    match s.[0] with
    | '-' -> (-1, 1)
    | '+' -> (1, 1)
    | _ -> (1, 0)
  in
  if start >= len then invalid_arg "Bigint.of_string: no digits";
  let acc = ref zero in
  let chunk = ref 0 and chunk_len = ref 0 in
  let flush () =
    if !chunk_len > 0 then begin
      let scale = pow (of_int 10) !chunk_len in
      acc := add (mul !acc scale) (of_int !chunk);
      chunk := 0;
      chunk_len := 0
    end
  in
  String.iteri
    (fun i c ->
       if i >= start then begin
         match c with
         | '0' .. '9' ->
           chunk := (!chunk * 10) + (Char.code c - Char.code '0');
           incr chunk_len;
           if !chunk_len = 9 then flush ()
         | _ -> invalid_arg "Bigint.of_string: invalid character"
       end)
    s;
  flush ();
  if sign < 0 then neg !acc else !acc

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( / ) = div
  let ( = ) = equal
  let ( < ) x y = compare x y < 0
  let ( <= ) x y = compare x y <= 0
  let ( > ) x y = compare x y > 0
  let ( >= ) x y = compare x y >= 0
end

let pp fmt x = Format.pp_print_string fmt (to_string x)
