(** The benchmark's own arithmetic: percentiles, per-cubicle self time,
    per-op normalisation and the result line. Pure functions, so the
    numbers the benchmark prints can be unit-tested apart from the
    system it measures. *)

(** {1 Percentiles} *)

val min_beyond : int
(** A percentile is only reported when at least this many samples lie
    beyond its rank (10), so a p99 needs 1000 samples. *)

val nearest_rank : pct:int -> int -> int
(** [nearest_rank ~pct n] is the 1-based rank [ceil (pct * n / 100)]
    (at least 1) of the [pct]-th percentile of [n] samples. Raises
    [Invalid_argument] unless [0 < pct < 100] and [n > 0]. *)

type pctl = { value : int; samples : int; rank : int; beyond : int }
(** A reported percentile with the sample count it came from, its rank
    and the number of samples strictly beyond that rank. *)

val percentile : pct:int -> int array -> pctl
(** Nearest-rank percentile of the samples (the array is not
    modified). Raises [Invalid_argument] when fewer than {!min_beyond}
    samples lie beyond the rank. *)

(** {1 Host speed} *)

val scale : ref_ns:int -> kernel_ns:int -> float
(** [ref_ns / kernel_ns]: the factor that takes a host time measured
    while a reference kernel took [kernel_ns] to the speed at which it
    takes [ref_ns]. Raises [Invalid_argument] unless [kernel_ns > 0]. *)

(** {1 Self time} *)

val self_times :
  top:(string * int) list -> edges:((string * string) * int) list -> (string * int) list
(** Exclusive time per cubicle class from inclusive edge sums. [top]
    gives, for each top-level cubicle, the time of the bench spans that
    enter it (they stand in for its incoming edges); [edges] gives each
    caller->callee edge's summed inclusive time. A class's self time is
    its incoming sum minus its outgoing sum. Every class named in
    either list appears once in the result, in ascending name order. *)

(** {1 Normalisation} *)

val per_op : ops:int -> int -> float
(** [per_op ~ops x] is [x / ops]. Raises [Invalid_argument] when
    [ops <= 0]. *)

val median_float : float list -> float
(** Middle element (mean of the two middle ones for even lengths).
    Raises [Invalid_argument] on an empty list. *)

(** {1 Output} *)

type value = Int of int | Float of float

val json_number : value -> string
(** A JSON number with every digit kept ([%.17g] for floats). Raises
    [Invalid_argument] on NaN or infinities, which JSON cannot carry. *)

val result_json :
  correct:bool ->
  attempted:int ->
  failed:int ->
  (string * value * string) list ->
  string
(** The one-line result: [{"correct": .., "attempted": .., "failed": ..,
    "metrics": {name: {"value": .., "unit": ..}, ..}}], metrics in the
    given order. Raises [Invalid_argument] on a duplicate metric name. *)
