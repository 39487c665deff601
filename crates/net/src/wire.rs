//! Wire-size accounting for protocol messages.
//!
//! The client/server protocol exchanges more than raw payloads: feature
//! queries carry headers, the server answers with per-image verdicts, and
//! MRC additionally downloads thumbnail feedback for candidate duplicates
//! (the paper notes "MRC consumes a little more bandwidth overhead than
//! SmartEye due to requiring thumbnail feedback").
//!
//! Resumable image uploads frame their payload into transport chunks, each
//! closed by a CRC-32 trailer, so a bit-flipped chunk is detected at the
//! receiver and re-requested instead of silently decoded. The simulation
//! accounts only the trailer's size ([`framed_upload_bytes`]); which chunks
//! arrive corrupted is drawn by
//! [`FaultModel::chunk_corrupted`](crate::FaultModel::chunk_corrupted), so no
//! checksum is ever computed. [`salvaged_payload_bytes`] maps the whole
//! chunks a cut transfer banked back to the decodable payload prefix they
//! carry — the quantity the progressive codec's partial decoder consumes.

/// Fixed per-message protocol header (ids, lengths, checksums).
pub const HEADER_BYTES: usize = 32;

/// CRC-32 trailer appended to every transport chunk of a framed upload.
pub const CHUNK_CRC_BYTES: usize = 4;

/// Server verdict for one queried image (image id, max similarity,
/// matched-image id).
pub const QUERY_VERDICT_BYTES: usize = 24;

/// A thumbnail the MRC server sends back per duplicate candidate so the
/// client can confirm visually (a small JPEG; the paper does not give a
/// size, 4 KiB is typical of a ~100×75 thumbnail).
pub const THUMBNAIL_BYTES: usize = 4096;

/// Uplink size of a feature query for a payload of `feature_bytes`.
pub fn feature_query_bytes(feature_bytes: usize) -> usize {
    HEADER_BYTES + feature_bytes
}

/// Downlink size of a query response covering `n_images` verdicts.
pub fn query_response_bytes(n_images: usize) -> usize {
    HEADER_BYTES + n_images * QUERY_VERDICT_BYTES
}

/// Downlink size of MRC thumbnail feedback for `n_candidates` candidates.
pub fn thumbnail_feedback_bytes(n_candidates: usize) -> usize {
    if n_candidates == 0 {
        return 0;
    }
    HEADER_BYTES + n_candidates * THUMBNAIL_BYTES
}

/// Uplink size of an image upload for an encoded payload of `image_bytes`.
pub fn image_upload_bytes(image_bytes: usize) -> usize {
    HEADER_BYTES + image_bytes
}

/// Payload capacity of one transport chunk of `chunk_bytes` total, after
/// the CRC trailer is subtracted (at least 1, so framing always makes
/// progress).
pub fn chunk_payload_bytes(chunk_bytes: usize) -> usize {
    chunk_bytes.saturating_sub(CHUNK_CRC_BYTES).max(1)
}

/// Uplink size of a CRC-framed image upload: the message header, the
/// payload, and one CRC trailer per transport chunk.
pub fn framed_upload_bytes(payload_len: usize, chunk_bytes: usize) -> usize {
    let chunks = payload_len.div_ceil(chunk_payload_bytes(chunk_bytes));
    HEADER_BYTES + payload_len + CHUNK_CRC_BYTES * chunks
}

/// The decodable payload prefix bought by `confirmed` delivered bytes of a
/// [`framed_upload_bytes`]-sized transfer: the payload carried by the whole
/// transport chunks those bytes cover. Conservative (rounds down to whole
/// chunks), monotone in `confirmed`, and exactly `payload_len` once the
/// transfer is complete.
pub fn salvaged_payload_bytes(confirmed: usize, payload_len: usize, chunk_bytes: usize) -> usize {
    if confirmed <= HEADER_BYTES {
        return 0;
    }
    if confirmed >= framed_upload_bytes(payload_len, chunk_bytes) {
        return payload_len;
    }
    let whole_chunks = (confirmed - HEADER_BYTES) / chunk_bytes.max(1);
    (whole_chunks * chunk_payload_bytes(chunk_bytes)).min(payload_len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_sizes_scale_with_payload() {
        assert_eq!(feature_query_bytes(1000), 1032);
        assert_eq!(query_response_bytes(3), 32 + 72);
        assert_eq!(image_upload_bytes(0), 32);
    }

    #[test]
    fn empty_thumbnail_feedback_is_free() {
        assert_eq!(thumbnail_feedback_bytes(0), 0);
        assert!(thumbnail_feedback_bytes(2) > 2 * THUMBNAIL_BYTES);
    }

    #[test]
    fn framed_size_counts_one_trailer_per_chunk() {
        assert_eq!(framed_upload_bytes(0, 1024), HEADER_BYTES);
        assert_eq!(framed_upload_bytes(1020, 1024), HEADER_BYTES + 1020 + 4);
        assert_eq!(framed_upload_bytes(1021, 1024), HEADER_BYTES + 1021 + 8);
        // Tiny chunk sizes still make progress: capacity floor is 1.
        assert_eq!(chunk_payload_bytes(2), 1);
        assert_eq!(framed_upload_bytes(3, 2), HEADER_BYTES + 3 + 12);
    }

    #[test]
    fn salvaged_payload_is_monotone_and_exact_at_the_ends() {
        let payload_len = 5_000;
        let chunk = 1024;
        let total = framed_upload_bytes(payload_len, chunk);
        assert_eq!(salvaged_payload_bytes(0, payload_len, chunk), 0);
        assert_eq!(salvaged_payload_bytes(HEADER_BYTES, payload_len, chunk), 0);
        assert_eq!(
            salvaged_payload_bytes(total, payload_len, chunk),
            payload_len
        );
        assert_eq!(
            salvaged_payload_bytes(total + 10, payload_len, chunk),
            payload_len
        );
        let mut last = 0;
        for confirmed in 0..=total {
            let got = salvaged_payload_bytes(confirmed, payload_len, chunk);
            assert!(got >= last, "salvage shrank at {confirmed}");
            assert!(got <= payload_len);
            last = got;
        }
        // One whole chunk past the header buys exactly its capacity.
        assert_eq!(
            salvaged_payload_bytes(HEADER_BYTES + chunk, payload_len, chunk),
            chunk_payload_bytes(chunk)
        );
        // A torn chunk buys nothing beyond the whole ones before it.
        assert_eq!(
            salvaged_payload_bytes(HEADER_BYTES + chunk + 3, payload_len, chunk),
            chunk_payload_bytes(chunk)
        );
    }
}
