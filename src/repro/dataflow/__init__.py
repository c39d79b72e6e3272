"""Type-driven dataflow: consumes/emits contracts over I2O routing.

The paper's device classes exchange *typed* private messages, but TiD
routing is untyped: every example wired each proxy by hand and the
first sign of a bad topology was a dead-lettered frame at runtime.
This package adds the declarative layer on top (Steinbeck-style
publish/subscribe declarations over the trigger-cluster transport
hierarchy):

* :mod:`repro.dataflow.registry` — a typed message registry mapping
  symbolic message types to I2O function codes and delivery modes;
  device classes declare ``consumes`` / ``emits`` tuples of them.
* :mod:`repro.dataflow.graph` — the static DAG built from emits →
  consumes edges, with named bootstrap-time diagnostics (cycle path,
  missing provider/consumer, ambiguous fan-in) and DOT/JSON reports.
* :mod:`repro.dataflow.routing` — the runtime side: per-device route
  tables the typed ``emit`` API resolves, plus queue-capacity credit
  backpressure (shed/park on downstream saturation).
* :mod:`repro.dataflow.wiring` — ``wire_dataflow`` lowers the graph
  to those route tables, for bootstrap and hand-assembled rigs alike.

Routing is runtime, the DAG is analytic: ``emit`` never walks the
graph — bootstrap derives plain TiD route tables from it once, so the
hot path stays the paper's zero-copy frameSend.

CLI: ``python -m repro.diag graph`` renders or checks a topology.
"""
