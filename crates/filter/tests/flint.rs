//! `retina-flint` end to end: the linter binary rejects a regex past the
//! matcher's position cap with an E003 naming the cap, in both output
//! modes, and exits non-zero.

use std::process::Command;

fn flint(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_retina-flint"))
        .args(args)
        .output()
        .expect("retina-flint runs");
    let text =
        String::from_utf8_lossy(&out.stdout).into_owned() + &String::from_utf8_lossy(&out.stderr);
    (out.status.success(), text)
}

#[test]
fn a_regex_past_the_position_cap_is_an_e003() {
    let cap = format!("cap of {}", retina_support::rematch::POSITION_CAP);
    for filter in [
        "tls.sni ~ 'a{100000}'",
        "tcp.port = 443 and http.uri ~ '(ab){4294967295}'",
        "tls.sni ~ '(){4294967295}'",
        "http.uri ~ '((?:){65535}){65535}'",
    ] {
        for mode in [&["--json"][..], &[]] {
            let (ok, text) = flint(&[mode, &["--expr", filter]].concat());
            assert!(!ok, "{filter}: flint exited 0:\n{text}");
            assert!(text.contains("E003"), "{filter}: no E003:\n{text}");
            assert!(
                text.contains(&cap),
                "{filter}: the cap is not named:\n{text}"
            );
        }
    }
    let (ok, text) = flint(&["--expr", r"tls.sni ~ '(.+?\.)?nflxvideo\.net'"]);
    assert!(ok, "the paper's pattern must lint clean:\n{text}");
}
