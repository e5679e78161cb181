//! Golden bytes of the MODIS product path: the content digests (the ones
//! shipment manifests carry) of the three encoded products for one day and
//! one night granule. Synthesis, the container encoder and its CRC-32 may
//! change how they compute, never what they write; these values were
//! recorded from the single-threaded, byte-table implementation.

use eoml::modis::files::{swath_from_owned_products, to_mod02, to_mod03, to_mod06};
use eoml::modis::{Container, GranuleId, Platform, SwathDims, SwathSynthesizer};
use eoml::transfer::content_digest;
use eoml::util::CivilDate;

fn products(slot: u16) -> (bool, [Vec<u8>; 3]) {
    let sy = SwathSynthesizer::new(2022, SwathDims::small());
    let date = CivilDate::new(2022, 1, 1).expect("valid date");
    let s = sy.synthesize(GranuleId::new(Platform::Terra, date, slot));
    (
        s.day,
        [to_mod02(&s), to_mod03(&s), to_mod06(&s)].map(|c| c.encode()),
    )
}

fn digests(bytes: &[Vec<u8>; 3]) -> [u64; 3] {
    [0, 1, 2].map(|i| content_digest(&bytes[i]))
}

#[test]
fn day_granule_products_are_byte_identical() {
    let (day, bytes) = products(3);
    assert!(day);
    assert_eq!(
        digests(&bytes),
        [
            0x3b0f_7198_5f91_ab76,
            0x8748_8d8f_96f7_8569,
            0x08b4_19ef_d542_6682
        ]
    );
}

#[test]
fn night_granule_products_are_byte_identical() {
    let (day, bytes) = products(0);
    assert!(!day);
    assert_eq!(
        digests(&bytes),
        [
            0x5bd6_4e1a_7008_b63a,
            0x1977_2f3f_f7a1_23a0,
            0xca77_e02d_d893_2114
        ]
    );
}

#[test]
fn owned_and_borrowed_reassembly_agree() {
    let (_, bytes) = products(3);
    let [c02, c03, c06] = [0, 1, 2].map(|i| Container::decode(&bytes[i]).expect("decodes"));
    let borrowed = eoml::modis::files::swath_from_products(&c02, &c03, &c06).expect("borrowed");
    let owned = swath_from_owned_products(c02, c03, c06).expect("owned");
    // Re-encoding either swath reproduces the original product bytes.
    for s in [&borrowed, &owned] {
        assert_eq!(
            [to_mod02(s), to_mod03(s), to_mod06(s)].map(|c| c.encode()),
            bytes
        );
    }
}
