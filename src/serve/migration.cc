#include "serve/migration.hh"

#include <filesystem>

#include "common/state_io.hh"

namespace tpcp::serve
{

namespace
{

std::string
joinPath(const std::string &dir, const std::string &name)
{
    return dir + "/" + name;
}

void
writeCounters(StateWriter &w, const ServeCounters &c)
{
    for (const CounterField &f : kTenantCounterFields)
        w.u64(c.*f.member);
}

ServeCounters
readCounters(StateReader &r)
{
    ServeCounters c;
    for (const CounterField &f : kTenantCounterFields)
        c.*f.member = r.u64();
    return c;
}

} // namespace

std::string
tenantCheckpointFile(std::uint64_t tenant)
{
    return "tenant_" + std::to_string(tenant) + ".ckpt";
}

void
writeMigrationBundle(const std::string &bundle_dir,
                     const std::vector<MigratedTenant> &tenants)
{
    std::error_code ec;
    std::filesystem::create_directories(bundle_dir, ec);
    if (ec)
        tpcp_raise("cannot create bundle directory ", bundle_dir,
                   ": ", ec.message());

    StateWriter manifest;
    manifest.u64(tenants.size());
    for (const MigratedTenant &t : tenants) {
        manifest.u64(t.id);
        manifest.u64(t.nextSeq);
        writeCounters(manifest, t.c);
        manifest.u64(t.quarantineRemaining);
        const std::vector<std::uint8_t> &image = t.checkpoint;
        manifest.b(!image.empty());
        if (image.empty())
            continue;
        // Write the checkpoint first; it may tear on a crash, but
        // without a manifest the bundle is unimportable, so a torn
        // file can never be consumed.
        const std::string path =
            joinPath(bundle_dir, tenantCheckpointFile(t.id));
        if (!writeFileAtomic(path, image))
            tpcp_raise("cannot write ", path);
        manifest.u64(image.size());
        manifest.u32(crc32(image.data(), image.size()));
    }
    // The manifest rename is the bundle's commit point.
    if (!writeStateFile(joinPath(bundle_dir, kMigrationManifest),
                        kMigrationMagic, kMigrationVersion, manifest))
        tpcp_raise("cannot write migration manifest in ", bundle_dir);
}

std::vector<MigratedTenant>
loadMigrationBundle(const std::string &bundle_dir)
{
    const std::vector<std::uint8_t> payload =
        readStateFile(joinPath(bundle_dir, kMigrationManifest),
                      kMigrationMagic, kMigrationVersion);
    StateReader r(payload, "migration manifest");
    // Every entry carries at least its id, next sequence number,
    // counters, quarantine state and checkpoint flag.
    const std::uint64_t count =
        r.count(8 + 8 + kTenantCounterFields.size() * 8 + 8 + 1);

    std::vector<MigratedTenant> tenants;
    tenants.reserve(count);
    for (std::uint64_t i = 0; i < count; ++i) {
        MigratedTenant t;
        t.id = r.u64();
        t.nextSeq = r.u64();
        t.c = readCounters(r);
        t.quarantineRemaining = r.u64();
        if (r.b()) {
            const std::uint64_t want_size = r.u64();
            const std::uint32_t want_crc = r.u32();
            const std::string path = joinPath(
                bundle_dir, tenantCheckpointFile(t.id));
            std::vector<std::uint8_t> bytes = readFile(path);
            if (bytes.size() != want_size)
                tpcp_raise("migration bundle: ", path, " is ",
                           bytes.size(), " bytes, manifest says ",
                           want_size);
            if (crc32(bytes.data(), bytes.size()) != want_crc)
                tpcp_raise("migration bundle: ", path,
                           " fails its manifest CRC");
            // The checkpoint's own envelope must also hold: a file
            // corrupted before bundling carries a valid manifest CRC
            // but an invalid TSRV envelope.
            parseStateFile(bytes, kTenantCheckpointMagic,
                           kTenantCheckpointVersion, path);
            t.checkpoint = std::move(bytes);
        }
        tenants.push_back(std::move(t));
    }
    if (!r.atEnd())
        tpcp_raise("migration manifest has ", r.remaining(),
                   " trailing bytes");
    return tenants;
}

} // namespace tpcp::serve
