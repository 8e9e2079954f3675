//! Clean counterpart for the taint fixtures: every flow seals the
//! plaintext through a sanitizer before it reaches a broker-visible
//! sink, or only ever handles opaque ciphertext bytes.

fn ship_sealed(w: &mut TcpStream, publisher: &Publisher) {
    let event = Event::builder("alarm").attr("zone", 7).build();
    let sealed = publisher.publish(event);
    w.write_all(&sealed).ok();
}

fn relay_opaque(w: &mut TcpStream, frame: &[u8]) {
    w.write_all(frame).ok();
}

fn persist_sealed(log: &mut LogWriter, publisher: &Publisher) {
    let event = Event::builder("audit").attr("who", 9).build();
    let sealed = publisher.publish(event);
    write_frame(log, &sealed);
}
