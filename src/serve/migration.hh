/**
 * @file
 * Crash-consistent tenant migration bundles for the streaming
 * service.
 *
 * A bundle is a directory holding one checkpoint file per migrated
 * tenant (the registry's "TSRV" checkpoint image, written as is)
 * plus a MANIFEST written *last*, atomically (temp + rename). The
 * manifest is the commit point: it records, for every tenant, the
 * sequence cursor, the full counter block, the remaining quarantine
 * backoff, and — for tenants whose tracker state rides along — the
 * checkpoint file's exact size and CRC-32.
 *
 * Crash consistency falls out of the write order: a crash before the
 * manifest rename leaves either no manifest or the previous one, so
 * a half-written bundle is never importable. On import every layer
 * is validated before anything is applied: the manifest's own
 * envelope (magic, version, length, CRC), each checkpoint file's
 * size and CRC against the manifest, and each checkpoint's own TSRV
 * envelope. A torn, truncated, bit-flipped or partially deleted
 * bundle is rejected with a recoverable tpcp::Error and the
 * importing service keeps running with whatever tenants it already
 * had — import is all-or-nothing. Bundles are the only files the
 * serve layer reads or writes.
 */

#ifndef TPCP_SERVE_MIGRATION_HH
#define TPCP_SERVE_MIGRATION_HH

#include <string>
#include <vector>

#include "serve/tenant_registry.hh"

namespace tpcp::serve
{

/** Envelope tag of a migration manifest ("TMIG"). */
inline constexpr std::uint32_t kMigrationMagic = 0x47494D54;
inline constexpr std::uint32_t kMigrationVersion = 1;

/** Manifest file name inside a bundle directory. */
inline constexpr const char *kMigrationManifest = "MANIFEST.tmig";

/** The bundle's checkpoint file name for @p tenant. */
std::string tenantCheckpointFile(std::uint64_t tenant);

/**
 * Writes a migration bundle to @p bundle_dir (created if missing):
 * each tenant's checkpoint image as its own file, then the manifest
 * last, atomically. Take the entries from migratedState() after
 * evictAll(), so every activated tenant carries a current image.
 * Raises tpcp::Error on any I/O failure.
 */
void writeMigrationBundle(const std::string &bundle_dir,
                          const std::vector<MigratedTenant> &tenants);

/**
 * Validates a bundle end to end and returns the manifest's tenant
 * entries, checkpoint images included, for the caller to
 * adoptTenant(). Raises tpcp::Error when the manifest is missing or
 * damaged, any checkpoint file is missing, resized, or fails its
 * CRC, or any checkpoint's own envelope is invalid.
 */
std::vector<MigratedTenant>
loadMigrationBundle(const std::string &bundle_dir);

} // namespace tpcp::serve

#endif // TPCP_SERVE_MIGRATION_HH
