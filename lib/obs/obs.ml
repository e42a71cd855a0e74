type ctx = {
  enabled : bool;
  tracing : bool;
  sink : Sink.t;
  metrics : Metrics.t;
}

let disabled =
  { enabled = false; tracing = false; sink = Sink.noop; metrics = Metrics.create () }

let create ?sink ?metrics () =
  {
    enabled = true;
    tracing = Option.is_some sink;
    sink = Option.value sink ~default:Sink.noop;
    metrics = (match metrics with Some m -> m | None -> Metrics.create ());
  }

let enabled ctx = ctx.enabled
let tracing ctx = ctx.tracing
let metrics ctx = ctx.metrics

let event ctx make = if ctx.tracing then ctx.sink.Sink.emit (make ())
let emit ctx ev = if ctx.tracing then ctx.sink.Sink.emit ev
let flush ctx = if ctx.enabled then ctx.sink.Sink.flush ()

let count ctx name = if ctx.enabled then Metrics.incr (Metrics.counter ctx.metrics name)

let count_n ctx name n =
  if ctx.enabled then Metrics.add (Metrics.counter ctx.metrics name) n

let set_gauge ctx name v =
  if ctx.enabled then Metrics.set (Metrics.gauge ctx.metrics name) v

let observe ctx name v =
  if ctx.enabled then Metrics.observe (Metrics.histogram ctx.metrics name) v

let span ctx name f =
  if not ctx.enabled then f ()
  else begin
    let h = Metrics.histogram ctx.metrics ("span_" ^ name ^ "_ns") in
    let t0 = Span.now_ns () in
    Fun.protect ~finally:(fun () -> Metrics.observe h (Span.now_ns () -. t0)) f
  end
