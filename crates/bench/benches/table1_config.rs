//! Table I: the simulated CMP configuration, printed from the live
//! `SystemConfig` values (both full scale and the default 1/8 scale).
use ziv_common::config::{L2Size, SystemConfig};

fn describe(name: &str, cfg: &SystemConfig) {
    println!("--- {name} ---");
    println!(
        "cores: {}   base CPI: {}   scale: 1/{}",
        cfg.cores, cfg.base_cpi, cfg.scale_denominator
    );
    println!(
        "L1 (i & d): {} KB {}-way   L2: {} KB {}-way, {} cycles",
        cfg.l1d.capacity_bytes() / 1024,
        cfg.l1d.ways,
        cfg.l2.capacity_bytes() / 1024,
        cfg.l2.ways,
        cfg.l2_latency
    );
    println!(
        "LLC: {} MB {}-way, {} banks, tag {} cycles, data {} cycles",
        cfg.llc.total_capacity_bytes() / (1024 * 1024),
        cfg.llc.bank_geometry.ways,
        cfg.llc.banks,
        cfg.llc.tag_latency,
        cfg.llc.data_latency
    );
    let dir = cfg.dir_slice_geometry();
    println!(
        "sparse directory: {:?}, {} sets x {} ways per slice ({} entries)",
        cfg.dir_ratio,
        dir.sets,
        dir.ways,
        dir.blocks()
    );
    println!(
        "mesh: {} + {} cycles/hop   DRAM: {} channels DDR3-2133 14-14-14-35",
        cfg.noc.router_cycles, cfg.noc.link_cycles, cfg.dram.channels
    );
}

fn main() {
    let heading = ziv_harness::Heading {
        figure: "Table I",
        title: "baseline simulation environment",
        expectation: "configuration only",
    };
    print!("{heading}");
    for l2 in L2Size::TABLE1 {
        describe(
            &format!("paper scale, {} L2", l2.label()),
            &SystemConfig::paper_with_l2(l2),
        );
    }
    describe("default 1/8 scale, 256KB-class L2", &SystemConfig::scaled());
    describe(
        "128-core server (TPC-E), 1/8 scale",
        &SystemConfig::server_128(8),
    );
}
