//! Seeded confidentiality-taint violation: a plaintext event goes
//! through a sharded pipeline's `publish_batch`, which routes events but
//! seals nothing, and the result reaches a frame sink. Only the
//! publisher's `publish` seals, so this flow must be flagged.

fn route_and_persist(log: &mut LogWriter, pipeline: &mut ShardedPipeline) {
    let event = Event::builder("alarm").attr("zone", 7).build();
    let routed = pipeline.publish_batch(event);
    write_frame(log, &routed);
}
