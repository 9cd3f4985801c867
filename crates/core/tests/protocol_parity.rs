//! Payload parity of the protocol core: the role steps instantiated with
//! `()` frames (the world `dex-check model` explores) and with real
//! `PageFrame`s (the world the runtime drives) must take identical
//! decisions. The same random schedule of faults, deliveries and retries
//! runs through both; page tables, directory state and every output —
//! modulo page contents — must agree after every step, faithful protocol
//! or mutated.

use std::collections::BTreeMap;

use proptest::prelude::*;

use dex_core::protocol::{
    holder_admit, holder_step, home_step, map_origin_default, requester_step, Deferred, Frames,
    HomeIn, Node, NodeState, Output, PageMsg, RequesterIn, Role,
};
use dex_core::{Directory, NodeSet, ProtocolMutation, ALL_MUTATIONS};
use dex_net::NodeId;
use dex_os::{Access, PageFrame, PageTable, Pte, RadixTree, Vpn};

const NODES: u16 = 4;
const PAGES: u64 = 3;

fn erase<P>(msg: PageMsg<P>) -> PageMsg<()> {
    use PageMsg::*;
    let unit = |_| ();
    match msg {
        Request {
            vpn,
            access,
            req_id,
        } => Request {
            vpn,
            access,
            req_id,
        },
        Grant {
            vpn,
            access,
            data,
            retry,
            req_id,
        } => Grant {
            vpn,
            access,
            data: data.map(unit),
            retry,
            req_id,
        },
        Invalidate { vpn, needs_data } => Invalidate { vpn, needs_data },
        InvalidateAck { vpn, data } => InvalidateAck {
            vpn,
            data: data.map(unit),
        },
        Flush { vpn } => Flush { vpn },
        FlushAck { vpn, .. } => FlushAck { vpn, data: () },
        OwnerForward {
            vpn,
            access,
            requester,
            req_id,
        } => OwnerForward {
            vpn,
            access,
            requester,
            req_id,
        },
        OwnerAck { vpn, access } => OwnerAck { vpn, access },
        InvalidateBatch { entries } => InvalidateBatch { entries },
        InvalidateBatchAck { entries } => InvalidateBatchAck {
            entries: entries.into_iter().map(|(v, d)| (v, d.map(unit))).collect(),
        },
    }
}

fn erase_output<P>(out: Output<P>) -> Output<()> {
    match out {
        Output::Send { to, msg } => Output::Send {
            to,
            msg: erase(msg),
        },
        Output::Released(Deferred { from, msg, tag }) => Output::Released(Deferred {
            from,
            msg: erase(msg),
            tag,
        }),
        Output::Wake { req_id, retry } => Output::Wake { req_id, retry },
        Output::WakeFollower(t) => Output::WakeFollower(t),
        Output::Lead => Output::Lead,
        Output::Follow {
            leader,
            leader_tag,
            bypass,
        } => Output::Follow {
            leader,
            leader_tag,
            bypass,
        },
        Output::ZeroPageGrant => Output::ZeroPageGrant,
    }
}

/// A request somebody waits on: where it came from and whether its
/// thread leads the fault (a follower-bypass request leads nothing).
type Open = (NodeId, Vpn, Access, bool);

/// One instantiation of the protocol core, driven synchronously.
struct World<F: Frames> {
    dir: Directory,
    home: NodeId,
    mutation: ProtocolMutation,
    nodes: Vec<(NodeState<F::Page>, PageTable, F)>,
    wire: Vec<(NodeId, NodeId, PageMsg<F::Page>)>,
    open: BTreeMap<u64, Open>,
    backoff: Vec<(u64, Open)>,
    /// Every output any step produced, payload erased, in order.
    log: Vec<(NodeId, Output<()>)>,
}

impl<F: Frames + Default> World<F> {
    fn new(sharded: bool, mutation: ProtocolMutation) -> Self {
        let (dir, home) = if sharded {
            (Directory::forwarded(NodeId(1), NodeId(0)), NodeId(1))
        } else {
            (Directory::new(NodeId(0)), NodeId(0))
        };
        let mut nodes: Vec<_> = (0..NODES)
            .map(|_| (NodeState::default(), PageTable::new(), F::default()))
            .collect();
        for page in 0..PAGES {
            map_origin_default(&mut nodes[0].1, Vpn::new(page));
        }
        World {
            dir,
            home,
            mutation,
            nodes,
            wire: Vec::new(),
            open: BTreeMap::new(),
            backoff: Vec::new(),
            log: Vec::new(),
        }
    }

    fn with_node<R>(&mut self, n: NodeId, f: impl FnOnce(&mut Node<'_, F>) -> R) -> R {
        let (state, page_table, frames) = &mut self.nodes[n.0 as usize];
        f(&mut Node {
            state,
            page_table,
            frames,
            mutation: self.mutation,
        })
    }

    fn home_step(&mut self, from: NodeId, msg: PageMsg<F::Page>) {
        let (state, page_table, frames) = &mut self.nodes[self.home.0 as usize];
        let node = &mut Node {
            state,
            page_table,
            frames,
            mutation: self.mutation,
        };
        // Zero-page grants are the one payload-dependent output: off here,
        // as in the model.
        let outs = home_step(&mut self.dir, node, false, HomeIn::Msg { from, msg });
        self.perform(self.home, outs);
    }

    fn perform(&mut self, node: NodeId, outs: Vec<Output<F::Page>>) {
        for out in outs {
            match &out {
                Output::Released(work) => {
                    self.log.push((node, erase_output(out.clone())));
                    let work = work.clone();
                    let outs =
                        self.with_node(node, |n| holder_step(n, work.from, work.msg, work.tag));
                    self.perform(node, outs);
                    continue;
                }
                Output::Wake { req_id, retry } => {
                    if let Some(open) = self.open.remove(req_id) {
                        let (_, vpn, access, leads) = open;
                        if *retry {
                            self.backoff.push((*req_id, open));
                        } else if leads {
                            let resolved = RequesterIn::Resolved { vpn, access };
                            let outs = self.with_node(node, |n| requester_step(n, resolved));
                            self.log.push((node, erase_output(out)));
                            self.perform(node, outs);
                            continue;
                        }
                    }
                }
                Output::Send { to, msg } => self.wire.push((node, *to, msg.clone())),
                _ => {}
            }
            self.log.push((node, erase_output(out)));
        }
    }

    fn issue(&mut self, req_id: u64, open: Open) {
        let (node, vpn, access, _) = open;
        self.open.insert(req_id, open);
        if node == self.home {
            let msg = PageMsg::Request {
                vpn,
                access,
                req_id,
            };
            self.home_step(node, msg);
        } else {
            let home = self.home;
            let issue = RequesterIn::Issue {
                vpn,
                access,
                req_id,
                home,
            };
            let outs = self.with_node(node, |n| requester_step(n, issue));
            self.perform(node, outs);
        }
    }

    fn fault(&mut self, node: NodeId, vpn: Vpn, access: Access, thread: u64) {
        if self.nodes[node.0 as usize].1.entry(vpn).permits(access) {
            return;
        }
        let fault = RequesterIn::Fault {
            vpn,
            access,
            thread,
            tag: thread,
        };
        let role = self.with_node(node, |n| requester_step(n, fault));
        let follows = match role[0] {
            Output::Follow { bypass, .. } => Some(bypass),
            _ => None,
        };
        self.perform(node, role);
        match follows {
            None => self.issue(thread, (node, vpn, access, true)),
            Some(true) => self.issue(thread, (node, vpn, access, false)),
            Some(false) => {}
        }
    }

    /// Delivers the oldest message on the channel of in-flight message
    /// `index` (channels are FIFO, as on the fabric).
    fn deliver(&mut self, index: usize) {
        if self.wire.is_empty() {
            return;
        }
        let (src, dst, _) = self.wire[index % self.wire.len()];
        let head = self.wire.iter().position(|m| (m.0, m.1) == (src, dst));
        let (_, _, msg) = self.wire.remove(head.expect("channel is not empty"));
        match msg.role() {
            Role::Home => self.home_step(src, msg),
            Role::Holder => {
                let state = &mut self.nodes[dst.0 as usize].0;
                if let Some(msg) = holder_admit(state, src, msg, 0) {
                    let outs = self.with_node(dst, |n| holder_step(n, src, msg, 0));
                    self.perform(dst, outs);
                }
            }
            Role::Requester => {
                let outs = self.with_node(dst, |n| requester_step(n, RequesterIn::Msg(msg)));
                self.perform(dst, outs);
            }
        }
    }

    fn reissue(&mut self, index: usize) {
        if !self.backoff.is_empty() {
            let (req_id, open) = self.backoff.remove(index % self.backoff.len());
            self.issue(req_id, open);
        }
    }

    fn step(&mut self, (kind, page, node, write, index): Step, seq: u64) {
        let access = if write { Access::Write } else { Access::Read };
        match kind {
            0 | 1 => self.fault(NodeId(node), Vpn::new(page), access, seq),
            2 | 3 => self.deliver(index),
            _ => self.reissue(index),
        }
    }

    /// Everything but page contents.
    #[allow(clippy::type_complexity)]
    fn view(&self) -> (Vec<Vec<(Vpn, Pte)>>, Vec<(NodeSet, Option<NodeId>)>, usize) {
        let mapped = self.nodes.iter().map(|n| n.1.snapshot()).collect();
        let pages = (0..PAGES).map(Vpn::new);
        let owned = pages.map(|v| (self.dir.owners(v), self.dir.current_writer(v)));
        (mapped, owned.collect(), self.wire.len())
    }
}

type Step = (u8, u64, u16, bool, usize);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn unit_and_real_frames_take_identical_decisions(
        sharded in any::<bool>(),
        mutation in 0usize..=ALL_MUTATIONS.len(),
        steps in proptest::collection::vec((0u8..5, 0..PAGES, 0..NODES, any::<bool>(), 0usize..16), 1..160)
    ) {
        let mutation = [ProtocolMutation::None].into_iter().chain(ALL_MUTATIONS).nth(mutation).unwrap();
        let mut model: World<()> = World::new(sharded, mutation);
        let mut real: World<RadixTree<PageFrame>> = World::new(sharded, mutation);
        for (seq, step) in steps.into_iter().enumerate() {
            model.step(step, seq as u64);
            real.step(step, seq as u64);
            prop_assert_eq!(model.view(), real.view(), "after step {} {:?}", seq, step);
            prop_assert_eq!(&model.log, &real.log, "after step {} {:?}", seq, step);
        }
    }
}

#[test]
fn home_honours_keep_origin_pte_for_any_requester() {
    // The parent's fault-path interpreter ignored the mutation on
    // `ClearOriginPte` while the dispatcher's honoured it; there is one
    // interpreter now, whoever the requester is.
    let mut dir = Directory::new(NodeId(0));
    let (mut state, mut page_table) = (NodeState::<()>::default(), PageTable::new());
    map_origin_default(&mut page_table, Vpn::new(0));
    let mut node = Node {
        state: &mut state,
        page_table: &mut page_table,
        frames: &mut (),
        mutation: ProtocolMutation::KeepOriginPte,
    };
    let reclaim = HomeIn::Reclaim {
        vpn: Vpn::new(0),
        actions: vec![dex_core::DirAction::ClearOriginPte],
    };
    assert!(home_step(&mut dir, &mut node, false, reclaim).is_empty());
    assert!(page_table.entry(Vpn::new(0)).writable, "mapping kept");
}
