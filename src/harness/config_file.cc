#include "harness/config_file.hh"

#include <fstream>
#include <limits>
#include <sstream>
#include <type_traits>

#include "dram/dram_presets.hh"
#include "sim/logging.hh"

namespace dramctrl {
namespace harness {

namespace {

using validate::Json;

constexpr const char *kFormat = "dramctrl-config-v1";

/** The object sections of a document; "plugins" is an array. */
constexpr ConfigSection kObjectSections[] = {
    ConfigSection::Organisation, ConfigSection::Timing,
    ConfigSection::Controller};

bool
failAt(std::string *err, const std::string &where,
       const std::string &msg)
{
    if (err)
        *err = where + ": " + msg;
    return false;
}

bool
getString(const Json &j, const std::string &where, const char *key,
          std::string &out, std::string *err)
{
    if (!j.has(key))
        return true;
    const Json &v = j[key];
    if (v.type() != Json::Type::String)
        return failAt(err, where,
                      std::string("'") + key + "' must be a string");
    out = v.asString();
    return true;
}

/** True when @p v is an integer literal that fits an unsigned T. */
template <typename T>
bool
fitsUnsigned(const Json &v)
{
    return v.isUInt() && v.asUInt() <= std::numeric_limits<T>::max();
}

/** JSON form of one table field's value. */
template <typename T>
Json
fieldToJson(const ConfigField &f, const T &v)
{
    if constexpr (std::is_enum_v<T>) {
        return Json(toString(v));
    } else if constexpr (std::is_same_v<T, std::vector<unsigned>>) {
        Json arr = Json::array();
        for (unsigned p : v)
            arr.push(p);
        return arr;
    } else if constexpr (std::is_same_v<T, std::uint64_t>) {
        // Durations in ns (%.17g survives the tick round-trip exactly).
        return f.kind == FieldKind::Duration ? Json(toNs(v)) : Json(v);
    } else {
        return Json(v);
    }
}

/**
 * Decode one table field from @p v into @p out.
 * @return "" on success, else why @p v does not fit the field.
 */
template <typename T>
std::string
fieldFromJson(const ConfigField &f, const Json &v, T &out)
{
    const std::string key = std::string("'") + f.key + "'";
    if constexpr (std::is_same_v<T, bool>) {
        if (v.type() != Json::Type::Bool)
            return key + " must be a boolean";
        out = v.asBool();
    } else if constexpr (std::is_same_v<T, std::string> ||
                         std::is_enum_v<T>) {
        if (v.type() != Json::Type::String)
            return key + " must be a string";
        if constexpr (std::is_enum_v<T>) {
            if (!fromString(v.asString(), out))
                return "unknown " + std::string(f.key) + " '" +
                       v.asString() + "'";
        } else {
            out = v.asString();
        }
    } else if constexpr (std::is_same_v<T, std::vector<unsigned>>) {
        if (!v.isArray())
            return key + " must be an array";
        out.clear();
        for (const Json &e : v.items()) {
            if (!fitsUnsigned<unsigned>(e))
                return key + " entries must be integers in [0, " +
                       std::to_string(
                           std::numeric_limits<unsigned>::max()) +
                       "]";
            out.push_back(static_cast<unsigned>(e.asUInt()));
        }
    } else {
        const bool ns = f.kind == FieldKind::Duration;
        if (!v.isNumber())
            return key + (ns ? " must be a number (nanoseconds)"
                             : " must be a number");
        if constexpr (std::is_same_v<T, double>) {
            out = v.asDouble();
        } else if (ns) {
            // fromNs() rounds to the nearest tick; that must fit.
            const double ticks =
                v.asDouble() * static_cast<double>(kTicksPerNs) + 0.5;
            if (!(v.asDouble() >= 0.0 && ticks < 0x1p64))
                return key + " must be a duration in [0, " +
                       std::to_string(kMaxTick / kTicksPerNs) + "] ns";
            out = fromNs(v.asDouble());
        } else {
            if (!fitsUnsigned<T>(v))
                return key + " must be an integer in [0, " +
                       std::to_string(std::numeric_limits<T>::max()) +
                       "]";
            out = static_cast<T>(v.asUInt());
        }
    }
    return "";
}

/** True when @p key names a field of section @p s in the table. */
bool
isField(ConfigSection s, const std::string &key)
{
    bool found = false;
    auto match = [&](const ConfigField &f, const auto &) {
        found = found || (f.section == s && key == f.key);
    };
    const DRAMCtrlConfig cfg;
    const PluginSpec ps;
    if (s == ConfigSection::Plugin)
        forEachPluginField(ps, match);
    else
        forEachField(cfg, match);
    return found;
}

/** Reject a section that is not an object or has unknown keys. */
bool
checkSection(const Json &j, ConfigSection s, std::string *err)
{
    if (!j.isObject())
        return failAt(err, toString(s),
                      s == ConfigSection::Plugin ? "entries must be objects"
                                                 : "must be an object");
    for (const auto &kv : j.members()) {
        if (!isField(s, kv.first))
            return failAt(err, toString(s),
                          "unknown key '" + kv.first + "'");
    }
    return true;
}

/**
 * Visitor that reads each table field present in its section of
 * @p doc; the first failure sticks in @p err and skips the rest.
 */
auto
fieldReader(const Json &doc, bool &ok, std::string *err)
{
    return [&doc, &ok, err](const ConfigField &f, auto &out) {
        const Json &sec = f.section == ConfigSection::Plugin
                              ? doc
                              : doc[toString(f.section)];
        if (!ok || !sec.has(f.key))
            return;
        std::string msg = fieldFromJson(f, sec[f.key], out);
        if (!msg.empty())
            ok = failAt(err, toString(f.section), msg);
    };
}

bool
pluginsFromJson(const Json &j, DRAMCtrlConfig &cfg, std::string *err)
{
    if (!j.isArray())
        return failAt(err, "plugins", "must be an array");
    cfg.plugins.clear();
    for (const Json &row : j.items()) {
        if (!checkSection(row, ConfigSection::Plugin, err))
            return false;
        PluginSpec ps;
        bool ok = true;
        forEachPluginField(ps, fieldReader(row, ok, err));
        if (!ok)
            return false;
        if (ps.kind.empty())
            return failAt(err, "plugins", "entry without a kind");
        cfg.plugins.push_back(ps);
    }
    return true;
}

} // namespace

bool
parseConfigText(const std::string &text, DRAMCtrlConfig &cfg,
                std::string *base_preset, std::string *err)
{
    Json j;
    if (!validate::parseJson(text, j, err))
        return false;
    return configFromJson(j, cfg, base_preset, err);
}

bool
configFromJson(const Json &j, DRAMCtrlConfig &cfg,
               std::string *base_preset, std::string *err)
{
    const std::string where = "config";
    if (!j.isObject())
        return failAt(err, where, "root must be an object");
    for (const auto &kv : j.members()) {
        if (kv.first != "format" && kv.first != "preset" &&
            kv.first != "organisation" && kv.first != "timing" &&
            kv.first != "controller" && kv.first != "plugins")
            return failAt(err, where, "unknown key '" + kv.first + "'");
    }
    std::string format;
    if (!getString(j, where, "format", format, err))
        return false;
    if (j.has("format") && format != kFormat)
        return failAt(err, where,
                      "unknown format '" + format + "' (expected '" +
                          kFormat + "')");
    std::string preset;
    if (!getString(j, where, "preset", preset, err))
        return false;
    if (!preset.empty()) {
        if (!presets::hasPreset(preset))
            return failAt(err, where,
                          "unknown preset '" + preset + "'");
        cfg = presets::byName(preset);
    }
    if (base_preset)
        *base_preset = preset;
    for (ConfigSection s : kObjectSections) {
        if (j.has(toString(s)) && !checkSection(j[toString(s)], s, err))
            return false;
    }
    bool ok = true;
    forEachField(cfg, fieldReader(j, ok, err));
    if (!ok)
        return false;
    return !j.has("plugins") || pluginsFromJson(j["plugins"], cfg, err);
}

DRAMCtrlConfig
loadConfigFile(const std::string &path, std::string *base_preset)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open config file '%s'", path.c_str());
    std::ostringstream ss;
    ss << in.rdbuf();
    DRAMCtrlConfig cfg;
    std::string err;
    if (!parseConfigText(ss.str(), cfg, base_preset, &err))
        fatal("config file '%s': %s", path.c_str(), err.c_str());
    cfg.check();
    return cfg;
}

validate::Json
configToJson(const DRAMCtrlConfig &cfg, const std::string &preset_name)
{
    Json j = Json::object();
    j.set("format", kFormat);
    if (!preset_name.empty())
        j.set("preset", preset_name);
    for (ConfigSection s : kObjectSections) {
        Json sec = Json::object();
        forEachField(cfg, [&](const ConfigField &f, const auto &v) {
            if (f.section == s)
                sec.set(f.key, fieldToJson(f, v));
        });
        j.set(toString(s), sec);
    }
    Json plugins = Json::array();
    for (const PluginSpec &ps : cfg.plugins) {
        Json row = Json::object();
        forEachPluginField(ps, [&row](const ConfigField &f,
                                      const auto &v) {
            row.set(f.key, fieldToJson(f, v));
        });
        plugins.push(row);
    }
    j.set("plugins", plugins);
    return j;
}

std::string
dumpConfig(const DRAMCtrlConfig &cfg, const std::string &preset_name)
{
    return configToJson(cfg, preset_name).dump(2) + "\n";
}

bool
writeConfigFile(const std::string &path, const DRAMCtrlConfig &cfg,
                const std::string &preset_name)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << dumpConfig(cfg, preset_name);
    return static_cast<bool>(out);
}

} // namespace harness
} // namespace dramctrl
