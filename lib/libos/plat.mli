(** The PLAT component: platform glue — console output and a
    deterministic entropy source. *)

type state

val make : ?echo:bool -> unit -> state * Cubicle.Builder.component
(** Exports: [plat_putc(c)], [plat_rand()] (deterministic PRNG),
    [plat_halt()]. With [echo] the console also prints to stdout. *)

val console_contents : state -> string
