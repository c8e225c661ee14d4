(* Unit and property tests for the numeric substrate (Bigint, Q).

   Strategy: exercise edge cases explicitly, then check algebraic laws by
   comparing against native-int reference computations on ranges where the
   native result cannot overflow. *)

open Numeric

let bi = Bigint.of_int
let check_bi msg expected actual = Alcotest.(check string) msg expected (Bigint.to_string actual)

(* --- Bigint unit tests ---------------------------------------------------- *)

let test_of_int_roundtrip () =
  List.iter
    (fun n ->
       Alcotest.(check (option int))
         (Printf.sprintf "roundtrip %d" n)
         (Some n)
         (Bigint.to_int_opt (bi n)))
    [ 0; 1; -1; 42; -42; 1 lsl 29; (1 lsl 30) - 1; 1 lsl 30; 1 lsl 31;
      (1 lsl 60) + 123; max_int; min_int; min_int + 1; max_int - 1 ]

let test_to_int_overflow () =
  let big = Bigint.mul (bi max_int) (bi 2) in
  Alcotest.(check (option int)) "2*max_int does not fit" None (Bigint.to_int_opt big);
  let neg_big = Bigint.neg big in
  Alcotest.(check (option int)) "-2*max_int does not fit" None (Bigint.to_int_opt neg_big);
  (* min_int fits but -min_int does not *)
  Alcotest.(check (option int)) "min_int fits" (Some min_int) (Bigint.to_int_opt (bi min_int));
  Alcotest.(check (option int)) "|min_int| overflows" None
    (Bigint.to_int_opt (Bigint.neg (bi min_int)))

let test_string_roundtrip () =
  List.iter
    (fun s -> check_bi s s (Bigint.of_string s))
    [ "0"; "1"; "-1"; "123456789"; "-987654321";
      "123456789012345678901234567890";
      "-340282366920938463463374607431768211456" ]

let test_string_underscores () =
  check_bi "underscores" "1000000" (Bigint.of_string "1_000_000")

let test_string_invalid () =
  List.iter
    (fun s ->
       Alcotest.check_raises s (Invalid_argument
         (match s with
          | "" -> "Bigint.of_string: empty string"
          | "-" | "+" -> "Bigint.of_string: no digits"
          | _ -> "Bigint.of_string: invalid character"))
         (fun () -> ignore (Bigint.of_string s)))
    [ ""; "-"; "+"; "12a3"; "1.5" ]

let test_add_sub () =
  let a = Bigint.of_string "999999999999999999999999" in
  let b = Bigint.of_string "1" in
  check_bi "carry chain" "1000000000000000000000000" (Bigint.add a b);
  check_bi "a - a = 0" "0" (Bigint.sub a a);
  check_bi "borrow chain" "999999999999999999999998"
    (Bigint.sub a b)

let test_mul () =
  let a = Bigint.of_string "123456789123456789" in
  let b = Bigint.of_string "987654321987654321" in
  check_bi "big product" "121932631356500531347203169112635269"
    (Bigint.mul a b);
  check_bi "sign" "-121932631356500531347203169112635269"
    (Bigint.mul (Bigint.neg a) b)

let test_divmod_euclidean () =
  (* Euclidean convention: 0 <= r < |b| for all sign combinations. *)
  let cases = [ (7, 3); (-7, 3); (7, -3); (-7, -3); (6, 3); (-6, 3); (0, 5) ] in
  List.iter
    (fun (a, b) ->
       let q, r = Bigint.divmod (bi a) (bi b) in
       let qi = Bigint.to_int_exn q and ri = Bigint.to_int_exn r in
       Alcotest.(check bool)
         (Printf.sprintf "divmod(%d,%d): 0 <= r < |b|" a b)
         true
         (ri >= 0 && ri < abs b);
       Alcotest.(check int)
         (Printf.sprintf "divmod(%d,%d): reconstruction" a b)
         a
         ((qi * b) + ri))
    cases

let test_div_by_zero () =
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Bigint.divmod Bigint.one Bigint.zero))

let test_big_division () =
  let a = Bigint.of_string "121932631356500531347203169112635269" in
  let b = Bigint.of_string "123456789123456789" in
  let q, r = Bigint.divmod a b in
  check_bi "exact quotient" "987654321987654321" q;
  check_bi "zero remainder" "0" r;
  let a' = Bigint.add a (bi 42) in
  let q', r' = Bigint.divmod a' b in
  check_bi "quotient unchanged" "987654321987654321" q';
  check_bi "remainder 42" "42" r'

let test_gcd () =
  check_bi "gcd(12,18)" "6" (Bigint.gcd (bi 12) (bi 18));
  check_bi "gcd(-12,18)" "6" (Bigint.gcd (bi (-12)) (bi 18));
  check_bi "gcd(0,5)" "5" (Bigint.gcd Bigint.zero (bi 5));
  check_bi "gcd(0,0)" "0" (Bigint.gcd Bigint.zero Bigint.zero);
  let a = Bigint.of_string "123456789123456789" in
  check_bi "gcd(a,a)" (Bigint.to_string a) (Bigint.gcd a a)

let test_pow () =
  check_bi "2^100" "1267650600228229401496703205376" (Bigint.pow (bi 2) 100);
  check_bi "x^0" "1" (Bigint.pow (bi 12345) 0);
  check_bi "(-3)^3" "-27" (Bigint.pow (bi (-3)) 3);
  Alcotest.check_raises "negative exponent"
    (Invalid_argument "Bigint.pow: negative exponent") (fun () ->
        ignore (Bigint.pow (bi 2) (-1)))

let test_shifts () =
  check_bi "1 << 100" (Bigint.to_string (Bigint.pow (bi 2) 100))
    (Bigint.shift_left Bigint.one 100);
  check_bi "(1<<100) >> 100" "1"
    (Bigint.shift_right (Bigint.shift_left Bigint.one 100) 100);
  (* Arithmetic right shift = floor division. *)
  check_bi "-5 >> 1 = -3" "-3" (Bigint.shift_right (bi (-5)) 1);
  check_bi "5 >> 1 = 2" "2" (Bigint.shift_right (bi 5) 1)

let test_compare () =
  let sorted = [ min_int; -1000000; -1; 0; 1; 42; 1 lsl 40; max_int ] in
  List.iteri
    (fun i a ->
       List.iteri
         (fun j b ->
            Alcotest.(check int)
              (Printf.sprintf "compare %d %d" a b)
              (compare i j)
              (Bigint.compare (bi a) (bi b)))
         sorted)
    sorted

let test_to_float () =
  Alcotest.(check (float 1e-6)) "42." 42.0 (Bigint.to_float (bi 42));
  Alcotest.(check (float 1e-6)) "-42." (-42.0) (Bigint.to_float (bi (-42)));
  let x = Bigint.pow (bi 10) 20 in
  Alcotest.(check (float 1e6)) "1e20" 1e20 (Bigint.to_float x)

(* --- Bigint property tests -------------------------------------------------- *)

let small_int = QCheck.int_range (-100000) 100000

let prop_add_matches_int =
  QCheck.Test.make ~name:"bigint add matches native" ~count:500
    (QCheck.pair small_int small_int) (fun (a, b) ->
        Bigint.to_int_exn (Bigint.add (bi a) (bi b)) = a + b)

let prop_mul_matches_int =
  QCheck.Test.make ~name:"bigint mul matches native" ~count:500
    (QCheck.pair small_int small_int) (fun (a, b) ->
        Bigint.to_int_exn (Bigint.mul (bi a) (bi b)) = a * b)

let prop_divmod_reconstruction =
  QCheck.Test.make ~name:"bigint divmod reconstruction" ~count:500
    (QCheck.pair small_int small_int) (fun (a, b) ->
        QCheck.assume (b <> 0);
        let q, r = Bigint.divmod (bi a) (bi b) in
        Bigint.equal (bi a) (Bigint.add (Bigint.mul q (bi b)) r)
        && Bigint.sign r >= 0
        && Bigint.compare r (Bigint.abs (bi b)) < 0)

let prop_string_roundtrip =
  QCheck.Test.make ~name:"bigint string roundtrip" ~count:500
    (QCheck.list_of_size (QCheck.Gen.int_range 1 8) small_int) (fun parts ->
        (* Build a large value from random parts to exercise multi-digit paths *)
        let x =
          List.fold_left
            (fun acc p -> Bigint.add (Bigint.mul acc (bi 1000003)) (bi p))
            Bigint.zero parts
        in
        Bigint.equal x (Bigint.of_string (Bigint.to_string x)))

(* The multi-digit rendering rebuilt from public operations: base-10^9
   chunks, most significant first, the lower ones zero-padded. Values of
   one base-2^30 digit take [Bigint.to_string]'s fast path; this is the
   path they took before it. *)
let chunked_to_string x =
  if Bigint.is_zero x then "0"
  else begin
    let billion = bi 1_000_000_000 in
    let rec chunks m acc =
      if Bigint.is_zero m then acc
      else
        let q, r = Bigint.divmod m billion in
        chunks q (Bigint.to_int_exn r :: acc)
    in
    match chunks (Bigint.abs x) [] with
    | [] -> assert false
    | first :: rest ->
      String.concat ""
        ((if Bigint.sign x < 0 then "-" else "")
         :: string_of_int first
         :: List.map (Printf.sprintf "%09d") rest)
  end

let test_to_string_fast_path_edges () =
  List.iter
    (fun n ->
       let x = bi n in
       Alcotest.(check string) (string_of_int n) (chunked_to_string x)
         (Bigint.to_string x);
       Alcotest.(check string) (string_of_int n ^ " native") (string_of_int n)
         (Bigint.to_string x))
    [
      0;
      1;
      -1;
      (1 lsl 30) - 1;
      -((1 lsl 30) - 1);
      1 lsl 30;
      -(1 lsl 30);
      max_int;
      min_int;
    ]

let prop_to_string_fast_path =
  QCheck.Test.make ~name:"bigint to_string = chunked rendering" ~count:500
    (QCheck.pair QCheck.int
       (QCheck.list_of_size (QCheck.Gen.int_range 1 8) small_int))
    (fun (n, parts) ->
       let big =
         List.fold_left
           (fun acc p -> Bigint.add (Bigint.mul acc (bi 1000003)) (bi p))
           (bi n) parts
       in
       List.for_all
         (fun x -> String.equal (Bigint.to_string x) (chunked_to_string x))
         [ bi n; big; Bigint.neg big ])

let prop_mul_commutative_big =
  QCheck.Test.make ~name:"bigint big mul commutative" ~count:200
    (QCheck.pair (QCheck.list_of_size (QCheck.Gen.int_range 1 6) small_int)
       (QCheck.list_of_size (QCheck.Gen.int_range 1 6) small_int))
    (fun (pa, pb) ->
       let build parts =
         List.fold_left
           (fun acc p -> Bigint.add (Bigint.mul acc (bi 999999937)) (bi p))
           Bigint.one parts
       in
       let a = build pa and b = build pb in
       Bigint.equal (Bigint.mul a b) (Bigint.mul b a))

let prop_div_of_product =
  QCheck.Test.make ~name:"bigint (a*b)/b = a for big values" ~count:200
    (QCheck.pair (QCheck.list_of_size (QCheck.Gen.int_range 1 6) small_int)
       (QCheck.list_of_size (QCheck.Gen.int_range 1 6) small_int))
    (fun (pa, pb) ->
       let build parts =
         List.fold_left
           (fun acc p -> Bigint.add (Bigint.mul acc (bi 999999937)) (bi p))
           Bigint.one parts
       in
       let a = build pa and b = build pb in
       QCheck.assume (not (Bigint.is_zero b));
       let q, r = Bigint.divmod (Bigint.mul a b) b in
       Bigint.equal q a && Bigint.is_zero r)

let prop_gcd_divides =
  QCheck.Test.make ~name:"gcd divides both" ~count:300
    (QCheck.pair small_int small_int) (fun (a, b) ->
        QCheck.assume (a <> 0 || b <> 0);
        let g = Bigint.gcd (bi a) (bi b) in
        Bigint.is_zero (Bigint.rem (bi a) g)
        && Bigint.is_zero (Bigint.rem (bi b) g))

(* --- Q unit tests ------------------------------------------------------------ *)

let qq a b = Q.of_ints a b
let check_q msg expected actual = Alcotest.(check string) msg expected (Q.to_string actual)

let test_q_normalisation () =
  check_q "6/4 = 3/2" "3/2" (qq 6 4);
  check_q "-6/4" "-3/2" (qq (-6) 4);
  check_q "6/-4" "-3/2" (qq 6 (-4));
  check_q "-6/-4" "3/2" (qq (-6) (-4));
  check_q "0/7" "0" (qq 0 7);
  Alcotest.(check bool) "canonical equality" true (Q.equal (qq 6 4) (qq 3 2))

let test_q_arith () =
  check_q "1/2 + 1/3" "5/6" (Q.add (qq 1 2) (qq 1 3));
  check_q "1/2 - 1/3" "1/6" (Q.sub (qq 1 2) (qq 1 3));
  check_q "2/3 * 3/4" "1/2" (Q.mul (qq 2 3) (qq 3 4));
  check_q "(1/2) / (3/4)" "2/3" (Q.div (qq 1 2) (qq 3 4));
  check_q "inv(-2/3)" "-3/2" (Q.inv (qq (-2) 3))

let test_q_div_by_zero () =
  Alcotest.check_raises "q div by zero" Division_by_zero (fun () ->
      ignore (Q.div Q.one Q.zero));
  Alcotest.check_raises "inv zero" Division_by_zero (fun () -> ignore (Q.inv Q.zero));
  Alcotest.check_raises "make x 0" Division_by_zero (fun () ->
      ignore (Q.make Bigint.one Bigint.zero))

let test_q_floor_ceil () =
  let cases =
    [ (7, 2, 3, 4); (-7, 2, -4, -3); (6, 2, 3, 3); (-6, 2, -3, -3); (0, 5, 0, 0) ]
  in
  List.iter
    (fun (n, d, fl, cl) ->
       Alcotest.(check int) (Printf.sprintf "floor %d/%d" n d) fl (Q.to_int_floor (qq n d));
       Alcotest.(check int) (Printf.sprintf "ceil %d/%d" n d) cl (Q.to_int_ceil (qq n d)))
    cases

let test_q_of_string () =
  check_q "3/4" "3/4" (Q.of_string "3/4");
  check_q "decimal 0.25" "1/4" (Q.of_string "0.25");
  check_q "decimal -1.5" "-3/2" (Q.of_string "-1.5");
  check_q "integer" "42" (Q.of_string "42");
  check_q "negative decimal < 1" "-1/4" (Q.of_string "-0.25")

let test_q_compare () =
  Alcotest.(check bool) "1/3 < 1/2" true (Q.compare (qq 1 3) (qq 1 2) < 0);
  Alcotest.(check bool) "-1/2 < -1/3" true (Q.compare (qq (-1) 2) (qq (-1) 3) < 0);
  Alcotest.(check bool) "min" true (Q.equal (qq 1 3) (Q.min (qq 1 3) (qq 1 2)));
  Alcotest.(check bool) "max" true (Q.equal (qq 1 2) (Q.max (qq 1 3) (qq 1 2)))

(* --- Q property tests --------------------------------------------------------- *)

let arb_q =
  QCheck.map
    (fun (n, d) -> Q.of_ints n (if d = 0 then 1 else d))
    (QCheck.pair (QCheck.int_range (-1000) 1000) (QCheck.int_range (-50) 50))

let prop_q_add_assoc =
  QCheck.Test.make ~name:"q add associative" ~count:300
    (QCheck.triple arb_q arb_q arb_q) (fun (a, b, c) ->
        Q.equal (Q.add a (Q.add b c)) (Q.add (Q.add a b) c))

let prop_q_distributive =
  QCheck.Test.make ~name:"q mul distributes over add" ~count:300
    (QCheck.triple arb_q arb_q arb_q) (fun (a, b, c) ->
        Q.equal (Q.mul a (Q.add b c)) (Q.add (Q.mul a b) (Q.mul a c)))

let prop_q_inv_involutive =
  QCheck.Test.make ~name:"q inv involutive" ~count:300 arb_q (fun a ->
      QCheck.assume (not (Q.is_zero a));
      Q.equal a (Q.inv (Q.inv a)))

let prop_q_floor_le =
  QCheck.Test.make ~name:"q floor <= x <= ceil, gap < 1" ~count:300 arb_q
    (fun a ->
       let fl = Q.floor a and cl = Q.ceil a in
       Q.compare fl a <= 0 && Q.compare a cl <= 0
       && Q.compare (Q.sub cl fl) Q.one <= 0)

let prop_q_frac_range =
  QCheck.Test.make ~name:"q frac in [0,1)" ~count:300 arb_q (fun a ->
      let f = Q.frac a in
      Q.sign f >= 0 && Q.compare f Q.one < 0)

let prop_q_compare_antisym =
  QCheck.Test.make ~name:"q compare antisymmetric" ~count:300
    (QCheck.pair arb_q arb_q) (fun (a, b) ->
        compare (Q.compare a b) 0 = compare 0 (Q.compare b a))

(* --- Fastq unit tests --------------------------------------------------------- *)

let check_fq msg expected actual =
  Alcotest.(check string) msg expected (Fastq.to_string actual)

let test_fastq_canonical_form () =
  check_fq "6/4 = 3/2" "3/2" (Fastq.make 6 4);
  check_fq "6/-4 = -3/2" "-3/2" (Fastq.make 6 (-4));
  check_fq "-6/-4 = 3/2" "3/2" (Fastq.make (-6) (-4));
  check_fq "0/7 = 0" "0" (Fastq.make 0 7);
  Alcotest.(check int) "den positive" 1 (Fastq.den (Fastq.make 0 7));
  Alcotest.(check bool) "canonical equality" true
    (Fastq.equal (Fastq.make 6 4) (Fastq.make 3 2))

let test_fastq_arith_small () =
  check_fq "1/2 + 1/3" "5/6" (Fastq.add (Fastq.make 1 2) (Fastq.make 1 3));
  check_fq "1/2 - 1/3" "1/6" (Fastq.sub (Fastq.make 1 2) (Fastq.make 1 3));
  check_fq "2/3 * 3/4" "1/2" (Fastq.mul (Fastq.make 2 3) (Fastq.make 3 4));
  check_fq "(1/2) / (3/4)" "2/3" (Fastq.div (Fastq.make 1 2) (Fastq.make 3 4));
  check_fq "inv(-2/3)" "-3/2" (Fastq.inv (Fastq.make (-2) 3))

let test_fastq_overflow_extremes () =
  let raises name f =
    Alcotest.check_raises name Fastq.Overflow (fun () -> ignore (f ()))
  in
  raises "min_int operand banned" (fun () -> Fastq.make min_int 1);
  raises "max_int + 1 overflows" (fun () ->
      Fastq.add (Fastq.of_int max_int) Fastq.one);
  raises "2^40 * 2^40 overflows" (fun () ->
      Fastq.mul (Fastq.of_int (1 lsl 40)) (Fastq.of_int (1 lsl 40)));
  raises "denominator lcm overflows" (fun () ->
      (* coprime denominators near 2^32: the common denominator exceeds
         the native range even though both operands are tiny *)
      Fastq.add (Fastq.make 1 ((1 lsl 32) - 1)) (Fastq.make 1 (1 lsl 32)));
  raises "compare cross product overflows" (fun () ->
      Fastq.compare (Fastq.make max_int 1) (Fastq.make 1 max_int));
  raises "of_q beyond native range" (fun () ->
      Fastq.of_q (Q.make (Bigint.mul (Bigint.of_int max_int) (Bigint.of_int 4)) Bigint.one))

let test_fastq_to_q_total () =
  List.iter
    (fun (n, d) ->
       Alcotest.(check string)
         (Printf.sprintf "to_q %d/%d" n d)
         (Q.to_string (Q.of_ints n d))
         (Q.to_string (Fastq.to_q (Fastq.make n d))))
    [ (3, 2); (-3, 2); (0, 5); (max_int, 1); (1, max_int); (max_int, max_int - 1) ]

let test_fastq_floor_ceil () =
  List.iter
    (fun (n, d, fl, cl) ->
       let x = Fastq.make n d in
       check_fq (Printf.sprintf "floor %d/%d" n d) fl (Fastq.floor x);
       check_fq (Printf.sprintf "ceil %d/%d" n d) cl (Fastq.ceil x))
    [
      (7, 2, "3", "4");
      (-7, 2, "-4", "-3");
      (-1, 3, "-1", "0");
      (1, 3, "0", "1");
      (6, 3, "2", "2");
      (-6, 3, "-2", "-2");
      (0, 5, "0", "0");
      (max_int, 1, string_of_int max_int, string_of_int max_int);
      (-max_int, 1, string_of_int (-max_int), string_of_int (-max_int));
      (max_int, 2, string_of_int (max_int / 2), string_of_int ((max_int / 2) + 1));
      (-max_int, 2, string_of_int (-(max_int / 2) - 1), string_of_int (-(max_int / 2)));
      (max_int - 1, max_int, "0", "1");
      (-(max_int - 1), max_int, "-1", "0");
    ]

(* --- Fastq property tests ------------------------------------------------------ *)

(* Small operands: every operation must agree exactly with Q. *)
let arb_fq_small =
  QCheck.map
    (fun (n, d) -> Fastq.make n (if d = 0 then 1 else d))
    (QCheck.pair (QCheck.int_range (-1000) 1000) (QCheck.int_range (-50) 50))

let fq_agrees qop fop a b =
  Q.equal (qop (Fastq.to_q a) (Fastq.to_q b)) (Fastq.to_q (fop a b))

let prop_fastq_small_matches_q =
  QCheck.Test.make ~name:"fastq agrees with Q on small rationals" ~count:500
    (QCheck.pair arb_fq_small arb_fq_small) (fun (a, b) ->
        fq_agrees Q.add Fastq.add a b
        && fq_agrees Q.sub Fastq.sub a b
        && fq_agrees Q.mul Fastq.mul a b
        && (Fastq.is_zero b || fq_agrees Q.div Fastq.div a b)
        && Q.compare (Fastq.to_q a) (Fastq.to_q b) = Fastq.compare a b)

(* Huge operands: an operation either agrees exactly with Q or raises
   Overflow — it never wraps into a wrong value. This is the soundness
   contract the speculative simplex tier rests on. *)
let arb_fq_huge =
  let open QCheck.Gen in
  QCheck.make
    (let* hi = int_range (-(1 lsl 30)) (1 lsl 30) in
     let* lo = int_range 1 (1 lsl 30) in
     let* d = int_range 1 (1 lsl 30) in
     return (Fastq.make (hi * lo) d))

let exact_or_overflow qop fop a b =
  match fop a b with
  | r -> Q.equal (qop (Fastq.to_q a) (Fastq.to_q b)) (Fastq.to_q r)
  | exception Fastq.Overflow -> true

let prop_fastq_huge_exact_or_overflow =
  QCheck.Test.make ~name:"fastq on huge operands: exact or Overflow, never wrong"
    ~count:500 (QCheck.pair arb_fq_huge arb_fq_huge) (fun (a, b) ->
        exact_or_overflow Q.add Fastq.add a b
        && exact_or_overflow Q.sub Fastq.sub a b
        && exact_or_overflow Q.mul Fastq.mul a b
        && (Fastq.is_zero b || exact_or_overflow Q.div Fastq.div a b)
        && (match Fastq.compare a b with
            | c -> c = Q.compare (Fastq.to_q a) (Fastq.to_q b)
            | exception Fastq.Overflow -> true))

(* Integral operands take a gcd-free path: near max_int it must still
   agree exactly with Q or raise, never wrap or produce min_int. *)
let arb_fq_integral =
  let open QCheck.Gen in
  QCheck.make ~print:Fastq.to_string
    (map Fastq.of_int
       (oneof
          [
            int_range (-1000) 1000;
            int_range (-(1 lsl 31)) (1 lsl 31);
            int_range (max_int - 1000) max_int;
            int_range (-max_int) (-max_int + 1000);
          ]))

let prop_fastq_integral_exact_or_overflow =
  QCheck.Test.make ~name:"fastq on integers: exact or Overflow, never wrong"
    ~count:1000 (QCheck.pair arb_fq_integral arb_fq_integral) (fun (a, b) ->
        let never_min_int f =
          match f a b with
          | r -> Fastq.num r <> min_int
          | exception Fastq.Overflow -> true
        in
        exact_or_overflow Q.add Fastq.add a b
        && exact_or_overflow Q.sub Fastq.sub a b
        && exact_or_overflow Q.mul Fastq.mul a b
        && never_min_int Fastq.add && never_min_int Fastq.sub
        && never_min_int Fastq.mul)

(* floor and ceil never overflow: anywhere in the native range, from
   small fractions to numerators and denominators near max_int, both
   agree exactly with Q. *)
let arb_fq_any =
  let open QCheck.Gen in
  let magnitude =
    oneof
      [ int_range 1 20; int_range 1 (1 lsl 40); int_range (max_int - 1000) max_int ]
  in
  QCheck.make ~print:Fastq.to_string
    (let* n = magnitude in
     let* negative = bool in
     let* d = oneof [ return 1; magnitude ] in
     return (Fastq.make (if negative then -n else n) d))

let prop_fastq_floor_ceil_match_q =
  QCheck.Test.make ~name:"fastq floor/ceil agree with Q" ~count:1000 arb_fq_any
    (fun x ->
       Q.equal (Q.floor (Fastq.to_q x)) (Fastq.to_q (Fastq.floor x))
       && Q.equal (Q.ceil (Fastq.to_q x)) (Fastq.to_q (Fastq.ceil x)))

let qsuite props = List.map QCheck_alcotest.to_alcotest props

let () =
  Alcotest.run "numeric"
    [
      ( "bigint",
        [
          Alcotest.test_case "of_int roundtrip" `Quick test_of_int_roundtrip;
          Alcotest.test_case "to_int overflow" `Quick test_to_int_overflow;
          Alcotest.test_case "string roundtrip" `Quick test_string_roundtrip;
          Alcotest.test_case "string underscores" `Quick test_string_underscores;
          Alcotest.test_case "string invalid" `Quick test_string_invalid;
          Alcotest.test_case "add/sub carries" `Quick test_add_sub;
          Alcotest.test_case "mul" `Quick test_mul;
          Alcotest.test_case "divmod euclidean" `Quick test_divmod_euclidean;
          Alcotest.test_case "div by zero" `Quick test_div_by_zero;
          Alcotest.test_case "big division" `Quick test_big_division;
          Alcotest.test_case "gcd" `Quick test_gcd;
          Alcotest.test_case "pow" `Quick test_pow;
          Alcotest.test_case "shifts" `Quick test_shifts;
          Alcotest.test_case "compare total order" `Quick test_compare;
          Alcotest.test_case "to_float" `Quick test_to_float;
          Alcotest.test_case "to_string fast path edges" `Quick
            test_to_string_fast_path_edges;
        ] );
      ( "bigint-properties",
        qsuite
          [
            prop_add_matches_int;
            prop_mul_matches_int;
            prop_divmod_reconstruction;
            prop_string_roundtrip;
            prop_to_string_fast_path;
            prop_mul_commutative_big;
            prop_div_of_product;
            prop_gcd_divides;
          ] );
      ( "rational",
        [
          Alcotest.test_case "normalisation" `Quick test_q_normalisation;
          Alcotest.test_case "arithmetic" `Quick test_q_arith;
          Alcotest.test_case "division by zero" `Quick test_q_div_by_zero;
          Alcotest.test_case "floor/ceil" `Quick test_q_floor_ceil;
          Alcotest.test_case "of_string" `Quick test_q_of_string;
          Alcotest.test_case "compare" `Quick test_q_compare;
        ] );
      ( "rational-properties",
        qsuite
          [
            prop_q_add_assoc;
            prop_q_distributive;
            prop_q_inv_involutive;
            prop_q_floor_le;
            prop_q_frac_range;
            prop_q_compare_antisym;
          ] );
      ( "fastq",
        [
          Alcotest.test_case "canonical form" `Quick test_fastq_canonical_form;
          Alcotest.test_case "small arithmetic" `Quick test_fastq_arith_small;
          Alcotest.test_case "overflow on extremes" `Quick test_fastq_overflow_extremes;
          Alcotest.test_case "to_q total" `Quick test_fastq_to_q_total;
          Alcotest.test_case "floor/ceil" `Quick test_fastq_floor_ceil;
        ] );
      ( "fastq-properties",
        qsuite
          [
            prop_fastq_small_matches_q;
            prop_fastq_huge_exact_or_overflow;
            prop_fastq_floor_ceil_match_q;
            prop_fastq_integral_exact_or_overflow;
          ] );
    ]
