/**
 * @file
 * Minimal JSON document model for the validation subsystem.
 *
 * Repro files (seed + config + shrunk request stream) must be written
 * on failure and replayed later, so the subsystem needs both a writer
 * and a parser. The stats tree already knows how to *emit* JSON; this
 * adds the tiny self-contained value model and recursive-descent
 * parser the repro format needs — objects, arrays, strings, bools,
 * null, and numbers (64-bit unsigned integers kept exact).
 */

#ifndef DRAMCTRL_VALIDATE_JSON_IO_H
#define DRAMCTRL_VALIDATE_JSON_IO_H

#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

namespace dramctrl {
namespace validate {

class Json
{
  public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    Json() = default;
    Json(bool b) : type_(Type::Bool), bool_(b) {}
    Json(double d) : type_(Type::Number), num_(d) {}
    Json(std::uint64_t u)
        : type_(Type::Number), num_(static_cast<double>(u)), uint_(u),
          isUInt_(true)
    {}
    Json(int i) : Json(static_cast<double>(i)) {}
    Json(unsigned u) : Json(static_cast<std::uint64_t>(u)) {}
    template <typename T,
              typename = std::enable_if_t<
                  std::is_unsigned_v<T> &&
                  !std::is_same_v<T, bool> &&
                  !std::is_same_v<T, unsigned> &&
                  !std::is_same_v<T, std::uint64_t>>>
    Json(T u) : Json(static_cast<std::uint64_t>(u))
    {}
    Json(const char *s) : type_(Type::String), str_(s) {}
    Json(std::string s) : type_(Type::String), str_(std::move(s)) {}

    static Json array() { Json j; j.type_ = Type::Array; return j; }
    static Json object() { Json j; j.type_ = Type::Object; return j; }

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }
    bool isNumber() const { return type_ == Type::Number; }
    /** True for a number written as a non-negative integer literal
     *  that fits 64 bits (asUInt() then returns it exactly). */
    bool isUInt() const { return type_ == Type::Number && isUInt_; }
    bool isObject() const { return type_ == Type::Object; }
    bool isArray() const { return type_ == Type::Array; }

    bool asBool(bool fallback = false) const
    {
        return type_ == Type::Bool ? bool_ : fallback;
    }
    double asDouble(double fallback = 0) const
    {
        return type_ == Type::Number ? num_ : fallback;
    }
    std::uint64_t
    asUInt(std::uint64_t fallback = 0) const
    {
        if (type_ != Type::Number)
            return fallback;
        return isUInt_ ? uint_ : static_cast<std::uint64_t>(num_);
    }
    const std::string &
    asString(const std::string &fallback = std::string()) const
    {
        return type_ == Type::String ? str_ : fallback;
    }

    /** Array element access; returns a shared null for misses. */
    const Json &at(std::size_t i) const;
    std::size_t size() const { return arr_.size(); }
    void push(Json v) { arr_.push_back(std::move(v)); }
    const std::vector<Json> &items() const { return arr_; }

    /** Object member access; returns a shared null for misses. */
    const Json &operator[](const std::string &key) const;
    bool has(const std::string &key) const;
    void set(const std::string &key, Json v);
    const std::map<std::string, Json> &members() const { return obj_; }

    /** Serialise; indent >= 0 pretty-prints. */
    std::string dump(int indent = -1) const;

  private:
    void dumpTo(std::string &out, int indent, int depth) const;

    Type type_ = Type::Null;
    bool bool_ = false;
    double num_ = 0;
    std::uint64_t uint_ = 0;
    bool isUInt_ = false;
    std::string str_;
    std::vector<Json> arr_;
    std::map<std::string, Json> obj_;
};

/**
 * Parse @p text into @p out.
 * @return false (with *err set when given) on malformed input.
 */
bool parseJson(const std::string &text, Json &out,
               std::string *err = nullptr);

} // namespace validate
} // namespace dramctrl

#endif // DRAMCTRL_VALIDATE_JSON_IO_H
