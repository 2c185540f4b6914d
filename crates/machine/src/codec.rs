//! The template data model's wire forms.
//!
//! [`Codec`], [`Reader`], [`Writer`] and [`CodecError`] are
//! [`dyncomp_ir::codec`]'s, re-exported here beside one
//! [`codec!`](dyncomp_ir::codec!) declaration per type of
//! [`crate::template`]. One impl is written out: [`LoopMarker`]'s,
//! because a block's `Option<LoopMarker>` keeps `None` in the marker's
//! own tag byte (0, beside the variants' 1–3) where every other `Option`
//! spends a byte of its own.
//!
//! A layout cannot say that a label, operand or word offset names
//! something that exists; [`RegionCode::check_refs`] does, and what
//! decodes an artifact calls it.

use crate::template::{
    Hole, LoopMarker, RegionCode, Template, TmplBlock, TmplExit, TmplLabel, ValueLoc,
};
use dyncomp_ir::{codec, SlotPath};

pub use dyncomp_ir::codec::{check_wire, Codec, CodecError, Reader, Writer};

codec! {
    enum ValueLoc: "value-loc tag" { 0 => Reg(r: u8), 1 => FReg(r: u8), 2 => Frame(offset: i32) }
    struct Hole { at: u32, slot: SlotPath }
    enum TmplExit: "template-exit tag" {
        0 => Jump(to: TmplLabel),
        1 => CondBranch { at: u32, taken: TmplLabel, fall: TmplLabel },
        2 => ConstBranch { slot: SlotPath, then_l: TmplLabel, else_l: TmplLabel },
        3 => ConstSwitch { slot: SlotPath, cases: Vec<(i64, TmplLabel)>, default: TmplLabel },
        4 => Return,
        5 => ExitRegion { exit: u32 },
    }
    struct TmplBlock {
        start: u32,
        end: u32,
        holes: Vec<Hole>,
        marker: Option<LoopMarker>,
        exit: TmplExit,
    }
    struct Template { code: Vec<u32>, blocks: Vec<TmplBlock>, entry: TmplLabel }
    struct RegionCode {
        region_index: u16,
        enter_pc: u32,
        setup_pc: u32,
        fallback_pc: Option<u32>,
        template: Template,
        exit_pcs: Vec<u32>,
        key_locs: Vec<ValueLoc>,
        table_static_len: u32,
    }
}

impl Codec for LoopMarker {
    const MIN_BYTES: usize = 1;

    fn encode(&self, w: &mut Writer) {
        match self {
            LoopMarker::Enter { root } => {
                w.put(&[1]);
                root.encode(w);
            }
            LoopMarker::Restart { next_slot } => {
                w.put(&[2]);
                next_slot.encode(w);
            }
            LoopMarker::Exit => w.put(&[3]),
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Self::decode_opt(r)?.ok_or_else(|| r.bad_tag("loop-marker tag"))
    }

    fn encode_opt(v: Option<&Self>, w: &mut Writer) {
        match v {
            None => w.put(&[0]),
            Some(m) => m.encode(w),
        }
    }

    fn decode_opt(r: &mut Reader<'_>) -> Result<Option<Self>, CodecError> {
        Ok(Some(match r.tag()? {
            0 => return Ok(None),
            1 => LoopMarker::Enter {
                root: SlotPath::decode(r)?,
            },
            2 => LoopMarker::Restart {
                next_slot: u32::decode(r)?,
            },
            3 => LoopMarker::Exit,
            _ => return Err(r.bad_tag("loop-marker tag")),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_region() -> RegionCode {
        RegionCode {
            region_index: 3,
            enter_pc: 10,
            setup_pc: 12,
            fallback_pc: Some(99),
            template: Template {
                code: vec![1, 2, 3, 4],
                blocks: vec![TmplBlock {
                    start: 0,
                    end: 4,
                    holes: vec![Hole {
                        at: 1,
                        slot: SlotPath::from_words(&[2, 0]),
                    }],
                    marker: Some(LoopMarker::Enter {
                        root: SlotPath::from_words(&[1]),
                    }),
                    exit: TmplExit::ConstSwitch {
                        slot: SlotPath::from_words(&[0]),
                        cases: vec![(-5, 0), (7, 1)],
                        default: 0,
                    },
                }],
                entry: 0,
            },
            exit_pcs: vec![40, 41],
            key_locs: vec![ValueLoc::Reg(5), ValueLoc::Frame(-16)],
            table_static_len: 6,
        }
    }

    #[test]
    fn every_declared_type_holds_its_wire_form() {
        let rc = sample_region();
        let block = &rc.template.blocks[0];
        check_wire(&block.holes[0]);
        check_wire(&block.marker);
        check_wire(&Some(LoopMarker::Restart { next_slot: 2 }));
        check_wire(&LoopMarker::Exit);
        check_wire(&block.exit);
        check_wire(block);
        check_wire(&rc.template);
        check_wire(&rc.key_locs);
        let exits = vec![
            TmplExit::Jump(1),
            TmplExit::CondBranch {
                at: 3,
                taken: 0,
                fall: 1,
            },
            TmplExit::ConstBranch {
                slot: SlotPath::from_words(&[2]),
                then_l: 0,
                else_l: 1,
            },
            TmplExit::Return,
            TmplExit::ExitRegion { exit: 1 },
        ];
        check_wire(&exits);
        check_wire(&rc);
    }

    #[test]
    fn region_code_round_trips() {
        // Length and FNV-1a-64 of this sample's wire form. First taken
        // from `write_region_code` before the declarations replaced it;
        // re-taken when a block's plan stopped being written (format v2),
        // when a hole lost its field tag and float byte (format v3) and
        // when a block lost its branch-fixup list (format v4).
        let rc = sample_region();
        let mut w = Writer::new();
        rc.encode(&mut w);
        let bytes = w.into_bytes();
        let fnv = dyncomp_ir::fnv::fnv1a(&bytes);
        assert_eq!((bytes.len(), fnv), (148, 0xbe72_ec5c_c668_f031));
        let mut r = Reader::new(&bytes);
        let back = RegionCode::decode(&mut r).expect("round trip");
        assert!(r.is_exhausted());
        assert_eq!(rc, back);
    }

    #[test]
    fn derived_minimums_are_exact() {
        assert_eq!(Hole::MIN_BYTES, 8);
        assert_eq!(TmplBlock::MIN_BYTES, 14);
        assert_eq!(RegionCode::MIN_BYTES, 35);
        assert_eq!(<Option<LoopMarker>>::MIN_BYTES, 1);
    }

    #[test]
    fn a_bare_marker_has_no_tag_zero() {
        let err = LoopMarker::decode(&mut Reader::new(&[0])).unwrap_err();
        assert_eq!((err.at, err.what), (0, "loop-marker tag"));
    }
}
