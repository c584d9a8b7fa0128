//! Tie order through a forwarding hop.
//!
//! Events at one instant dispatch in the order they were scheduled, so
//! the hops a packet crosses decide where its delivery falls among the
//! other events of its arrival instant. The golden corpus is generated
//! at tiny scale and never sees such a tie move. Quick-scale
//! `fig11_UMELB` and `fig12-15_UMELB` do: delivering packets straight
//! from the forward delay box, without the demux dispatch, leaves every
//! golden table unchanged but moves those two tables. This test pins
//! the tie directly.

use ebrc_experiments::figures::internet::{site_config, sites};
use ebrc_experiments::scenarios::DumbbellRun;
use ebrc_net::{net_event_name, NetEvent};
use ebrc_sim::{ComponentId, TraceSink};

/// Records every dispatch inside a time window, in dispatch order.
struct Window {
    from: f64,
    to: f64,
    dispatches: Vec<(f64, ComponentId, &'static str)>,
}

impl TraceSink<NetEvent> for Window {
    fn on_event(&mut self, now: f64, target: ComponentId, event: &NetEvent) {
        if (self.from..self.to).contains(&now) {
            self.dispatches.push((now, target, net_event_name(event)));
        }
    }

    fn on_counter(&mut self, _: f64, _: ComponentId, _: &'static str, _: f64) {}

    fn on_instant(&mut self, _: f64, _: ComponentId, _: &'static str) {}
}

#[test]
fn bottleneck_txdone_dispatches_before_the_demuxed_delivery() {
    // Quick-scale fig11's UMELB point with one pair, replica 0.
    let cfg = site_config(&sites()[3], 1, 7292, true);
    let mut run = DumbbellRun::build(&cfg);
    let (_, receiver) = run.tfrc[0];
    let bottleneck = run.bottleneck;
    run.engine.set_tracer(Box::new(Window {
        from: 0.2011,
        to: 0.2013,
        dispatches: Vec::new(),
    }));
    run.engine.run_until(0.25);
    let tracer: Box<dyn std::any::Any> = run.engine.take_tracer().expect("tracer installed");
    let window = tracer
        .downcast::<Window>()
        .expect("the window is the tracer");
    let position = |target, name| {
        window
            .dispatches
            .iter()
            .position(|&(_, t, n)| t == target && n == name)
            .unwrap_or_else(|| panic!("no {name} at {target:?}: {:?}", window.dispatches))
    };
    let txdone = position(bottleneck, "txdone");
    let delivery = position(receiver, "packet:data");
    assert_eq!(
        window.dispatches[txdone].0, window.dispatches[delivery].0,
        "the two dispatches share one instant: {:?}",
        window.dispatches
    );
    assert!(
        txdone < delivery,
        "bottleneck txdone must dispatch before tfrc-0-rcv packet:data: {:?}",
        window.dispatches
    );
}
